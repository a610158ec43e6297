package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

class TokenizerSpec extends AnyFunSuite with PropHelpers {

  test("lowercases alphabetic tokens") {
    assert(Tokenizer.tokenize("Apple") == Seq("apple"))
  }

  test("splits on whitespace") {
    assert(Tokenizer.tokenize("Apple Inc") == Seq("apple", "inc"))
  }

  test("splits on punctuation") {
    assert(Tokenizer.tokenize("Apple-Inc.") == Seq("apple", "inc"))
  }

  test("formatting variants tokenize identically (semantic robustness)") {
    val variants = Seq("Apple Inc.", "APPLE INC", "apple_inc", "Apple/Inc", "  apple  inc  ")
    val expected = Tokenizer.tokenize(variants.head)
    variants.tail.foreach(v => assert(Tokenizer.tokenize(v) == expected, v))
  }

  test("pure digit tokens get a length marker") {
    assert(Tokenizer.tokenize("12345") == Seq("12345", "#len5"))
  }

  test("mixed alphanumeric tokens get no length marker") {
    assert(Tokenizer.tokenize("a12345") == Seq("a12345"))
  }

  test("digit marker distinguishes magnitudes") {
    assert(Tokenizer.tokenize("12").last == "#len2")
    assert(Tokenizer.tokenize("1200000").last == "#len7")
  }

  test("null maps to the empty sentinel") {
    assert(Tokenizer.tokenize(null) == Seq(Tokenizer.EmptyToken))
  }

  test("empty string maps to the empty sentinel") {
    assert(Tokenizer.tokenize("") == Seq(Tokenizer.EmptyToken))
  }

  test("pure punctuation maps to the empty sentinel") {
    assert(Tokenizer.tokenize("--- !!") == Seq(Tokenizer.EmptyToken))
  }

  test("multi-token values keep order") {
    assert(Tokenizer.tokenize("Ultra Bacon 42") == Seq("ultra", "bacon", "42", "#len2"))
  }

  test("code-style values split on dash") {
    assert(Tokenizer.tokenize("TCK-100042") == Seq("tck", "100042", "#len6"))
  }

  test("date values split into components") {
    assert(Tokenizer.tokenize("2015-03-17") ==
      Seq("2015", "#len4", "03", "#len2", "17", "#len2"))
  }

  test("tokenize never returns empty for any string") {
    forAllStrings() { s => assert(Tokenizer.tokenize(s).nonEmpty) }
  }

  test("tokens are always lowercase alphanumeric or markers") {
    forAllStrings() { s =>
      Tokenizer.tokenize(s).foreach { t =>
        assert(t == Tokenizer.EmptyToken || t.startsWith("#len") ||
          !t.exists(Character.isUpperCase))
      }
    }
  }

  test("tokenize is case-insensitive") {
    forAllStrings() { s =>
      assert(Tokenizer.tokenize(s.toUpperCase.toLowerCase) == Tokenizer.tokenize(s.toLowerCase))
    }
  }

  test("qgrams normalizes case and punctuation") {
    assert(Tokenizer.qgrams("Company-Name") == Tokenizer.qgrams("company name"))
  }

  test("qgrams of short strings yields the padded string") {
    assert(Tokenizer.qgrams("ab", 5) == Set("<ab>"))
  }

  test("similar names share many qgrams") {
    val a = Tokenizer.qgrams("customer_id")
    val b = Tokenizer.qgrams("customer_key")
    val j = a.intersect(b).size.toDouble / a.union(b).size
    assert(j > 0.4, s"jaccard $j")
  }

  test("unrelated names share few qgrams") {
    val a = Tokenizer.qgrams("customer_id")
    val b = Tokenizer.qgrams("shipment_zone")
    val j = a.intersect(b).size.toDouble / a.union(b).size
    assert(j < 0.2, s"jaccard $j")
  }
}
