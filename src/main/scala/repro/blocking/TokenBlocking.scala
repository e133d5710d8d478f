package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Token blocking h_T (paper §3.1) with Block Purging.
  *
  * A token block exists for every token shared by the two KBs; its
  * comparison cardinality in clean-clean ER is EF1(t)·EF2(t). Excessively
  * large blocks (stop-words) are discarded by an iterated-mean rule (see
  * [[TokenBlocking.purgeMaxComparisons]]): a block is purged when its
  * cardinality exceeds `PurgeFactor` times the mean cardinality of the
  * blocks kept so far, repeated to a fixpoint. This has the intent of the
  * comparison-based Block Purging of Papadakis et al. (TKDE 2013) that the
  * paper adopts via Meta-blocking [27], but is not that criterion.
  */
object TokenBlocking {

  /** A block is purged above this multiple of the mean kept cardinality. */
  private val PurgeFactor = 10.0

  /** Purging outcome for reporting. */
  final case class PurgeStats(maxComparisons: Long, keptBlocks: Long, purgedBlocks: Long)

  /** Shared token blocks across the two KBs.
    *
    * @param et1 (entity, token) of KB1 — from [[repro.kb.Tokenizer.entityTokens]]
    * @param et2 (entity, token) of KB2
    * @return (token, ef1, ef2, comparisons) for every token present in both
    */
  def sharedTokenBlocks(et1: DataFrame, et2: DataFrame): DataFrame = {
    val ef1 = repro.kb.Tokenizer.entityFrequency(et1).withColumnRenamed("ef", "ef1")
    val ef2 = repro.kb.Tokenizer.entityFrequency(et2).withColumnRenamed("ef", "ef2")
    ef1.join(ef2, "token")
      .withColumn("comparisons", col("ef1") * col("ef2"))
  }

  /** The Block Purging cardinality threshold.
    *
    * A stop-word block suggests orders of magnitude more comparisons than
    * the typical content-token block, so we repeatedly drop blocks whose
    * comparison cardinality exceeds `PurgeFactor ×` the mean cardinality of
    * the retained blocks, until a fixpoint (at most 20 rounds). Uniform
    * distributions are left untouched (threshold ≥ PurgeFactor × mean);
    * heavy tails are cut at the stop-word knee. Distinct cardinalities are
    * few, so the aggregates are collected to the driver.
    */
  def purgeMaxComparisons(blocks: DataFrame): Long = {
    val byCard = blocks
      .groupBy("comparisons")
      .agg(count(lit(1)) as "nblocks")
      .orderBy("comparisons")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))
    if (byCard.isEmpty) return 0L
    var threshold = Long.MaxValue
    var changed = true
    var iter = 0
    while (changed && iter < 20) {
      val kept = byCard.filter(_._1 <= threshold)
      val nBlocks = kept.map(_._2).sum
      val totalComp = kept.map { case (c, n) => c.toDouble * n }.sum
      val next = math.max(PurgeFactor, PurgeFactor * totalComp / math.max(1L, nBlocks)).toLong
      changed = next < threshold
      threshold = if (changed) next else threshold
      iter += 1
    }
    math.min(threshold, byCard.last._1)
  }

  /** Apply Block Purging; returns the retained (cached) blocks plus stats. */
  def purgedBlocks(blocksIn: DataFrame): (DataFrame, PurgeStats) = {
    val blocks = blocksIn.cache()
    val maxC = purgeMaxComparisons(blocks)
    val kept = blocks.filter(col("comparisons") <= maxC).cache()
    val total = blocks.count()
    val keptN = kept.count()
    blocks.unpersist()
    (kept, PurgeStats(maxC, keptN, total - keptN))
  }

  /** Convenience: shared blocks of two KBs after purging. */
  def purgedSharedBlocks(et1: DataFrame, et2: DataFrame): (DataFrame, PurgeStats) =
    purgedBlocks(sharedTokenBlocks(et1, et2))
}
