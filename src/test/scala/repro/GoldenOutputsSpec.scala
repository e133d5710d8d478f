package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import org.apache.spark.sql.DataFrame

import repro.baselines.{BSL, IterativeMatcher, LindaLite, ParisLite}
import repro.core.{MinoanER, MinoanERConfig}
import repro.graph.BlockingGraph
import repro.harness.Tables
import repro.kb.{NameDiscovery, Tokenizer}

/** Golden fingerprints of the pipeline's and the baselines' outputs on the
  * tiny generator profiles. A refactor that keeps behaviour reproduces every
  * hash exactly; a change that alters an output on purpose regenerates the
  * constants and says so.
  *
  * Pair sets are hashed as the benchmark hashes a match set: SHA-256 over
  * the sorted (e1, e2) longs, first 16 hex digits. Other outputs are hashed
  * the same way over their sorted text lines.
  */
class GoldenOutputsSpec extends SparkSpec {

  private val cfg = MinoanERConfig()

  private def hex16(md: MessageDigest): String =
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString

  private def pairHash(df: DataFrame): String = {
    val sorted = df.select("e1", "e2").collect()
      .map(r => (r.getLong(0), r.getLong(1))).distinct.sorted
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(16)
    sorted.foreach { case (a, b) => buf.clear(); buf.putLong(a).putLong(b); md.update(buf.array()) }
    hex16(md)
  }

  private def lineHash(lines: Seq[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.sorted.foreach(l => md.update((l + "\n").getBytes(UTF_8)))
    hex16(md)
  }

  private lazy val tiny = Tables.bundle(spark, TestKBs.tinyProfile)

  override def afterAll(): Unit = {
    Tables.releaseBundle(tiny)
    super.afterAll()
  }

  /** `resolve`, then `matchGraph` of every Table-4 variant over one graph. */
  private def minoanHashes(b: Tables.Bundle): Map[String, String] = {
    val g = BlockingGraph.build(b.kb1, b.kb2, cfg).materialize()
    val variants = Tables.table4Variants.map { case (name, v) =>
      name -> pairHash(MinoanER.matchGraph(g, b.kb1, b.kb2, cfg, v))
    }
    (("resolve" -> pairHash(MinoanER.resolve(b.kb1, b.kb2, cfg))) +: variants).toMap
  }

  test("MinoanER outputs on the tiny profile match the golden hashes") {
    assert(minoanHashes(tiny) === Map(
      "resolve" -> "7e18e467992d1467", "R1" -> "828316318c1e1eff", "R2" -> "ce496af4d2038e43",
      "R3" -> "ff401a79c9728075", "NoR4" -> "7e18e467992d1467", "NoNeighbors" -> "43d914067361e77a"))
  }

  test("MinoanER outputs on the tiny heterogeneous profile match the golden hashes") {
    val het = Tables.bundle(spark, TestKBs.tinyHeterogeneous)
    try {
      assert(minoanHashes(het) === Map(
        "resolve" -> "69704cf5663d6929", "R1" -> "63e2715312f19bef", "R2" -> "159240b95d07d149",
        "R3" -> "ffbc425fef8f8bb9", "NoR4" -> "516f727a8d7588c0", "NoNeighbors" -> "73950e5a09706fd8"))
    } finally Tables.releaseBundle(het)
  }

  test("BSL candidate pairs and IterativeMatcher value scores match the golden hashes") {
    val et1 = Tokenizer.entityTokens(tiny.kb1)
    val et2 = Tokenizer.entityTokens(tiny.kb2)
    val names1 = NameDiscovery.names(tiny.kb1, cfg.k)
    val names2 = NameDiscovery.names(tiny.kb2, cfg.k)
    val candidates = pairHash(BSL.candidatePairs(et1, et2, names1, names2))
    val scores = lineHash(IterativeMatcher.valueScores(tiny.kb1, tiny.kb2).collect()
      .map(r => f"${r.getLong(0)} ${r.getLong(1)} ${r.getDouble(2)}%.6f").toSeq)
    assert((candidates, scores) === (("d7a9779ff195b289", "bb30c9330b808487")))
  }

  test("PARIS-lite, LINDA-lite and the BSL sweep match the golden hashes") {
    val names1 = NameDiscovery.names(tiny.kb1, cfg.k)
    val names2 = NameDiscovery.names(tiny.kb2, cfg.k)
    val paris = pairHash(ParisLite.run(spark, tiny.kb1, tiny.kb2))
    val linda = pairHash(LindaLite.run(spark, tiny.kb1, tiny.kb2))
    val bsl = lineHash(BSL.run(spark, tiny.kb1, tiny.kb2, names1, names2, tiny.truth, ns = Seq(1))
      .all.map { case (c, s) => s"${c.label} ${s.truePositives} ${s.returned}" })
    assert(Map("paris" -> paris, "linda" -> linda, "bsl" -> bsl) === Map(
      "paris" -> "9908c7c87bc8271d", "linda" -> "701c49ec8d9d1ed7", "bsl" -> "ab3c619afbe22474"))
  }

  test("Table 2 block statistics of the tiny profile match the golden hash") {
    assert(lineHash(Seq(Tables.table2(tiny).toString)) === "38a9ace571fceb98")
  }
}
