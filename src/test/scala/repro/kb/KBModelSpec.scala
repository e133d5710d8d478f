package repro.kb

import repro.{SparkSpec, TestKBs}

class KBModelSpec extends SparkSpec {

  private lazy val kb1 = TestKBs.kb1(spark)

  test("literals excludes relation triples") {
    assert(KBModel.literals(kb1).count() === 7)
  }

  test("relationTriples selects only entity-valued triples") {
    assert(KBModel.relationTriples(kb1).count() === 3)
  }

  test("entities collects distinct subjects") {
    val e = KBModel.entities(kb1).collect().map(_.getLong(0)).toSet
    assert(e === Set(TestKBs.Restaurant1, TestKBs.JohnLakeA, TestKBs.Bray, TestKBs.UK))
  }

  test("entityCount matches distinct subjects") {
    assert(KBModel.entityCount(kb1) === 4)
  }

  test("entityRelations matches the paper's relations(e) example shape") {
    val rels = KBModel.entityRelations(kb1).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(rels === Set(
      (TestKBs.Restaurant1, "hasChef"),
      (TestKBs.Restaurant1, "territorial"),
      (TestKBs.Restaurant1, "inCountry")))
  }

  test("fromRows round-trips objId nullability") {
    val kb = KBModel.fromRows(spark, Seq(
      (1L, "p", "v", None), (1L, "r", "ref:2", Some(2L))))
    assert(kb.filter(kb("objId").isNull).count() === 1)
    assert(kb.filter(kb("objId") === 2L).count() === 1)
  }

  test("schema column names and order") {
    assert(kb1.columns.toSeq === Seq("subj", "pred", "obj", "objId"))
  }
}
