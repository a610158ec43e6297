package repro.core

import scala.collection.mutable.ArrayBuffer

/** Cell-value tokenizer shared by the embedding models and D3L's
  * word-embedding evidence.
  *
  * Values are lower-cased and split on non-alphanumeric runs, which makes the
  * token stream robust to the formatting differences that separate
  * "semantically joinable" from "syntactically joinable" columns in the paper
  * ("Apple Inc." / "APPLE-INC" tokenize identically). Pure-digit tokens are
  * kept verbatim and additionally tagged with a length marker so numeric key
  * columns of different magnitudes stay distinguishable.
  */
object Tokenizer {

  /** Sentinel token for null/blank cells so every row contributes a (stable)
    * vector to its column's mean embedding.
    */
  val EmptyToken: String = "__empty__"

  private val EmptySeq: Seq[String] = Seq(EmptyToken)

  /** Tokenize one cell value. Never returns an empty sequence. */
  def tokenize(value: String): Seq[String] = {
    if (value == null) return EmptySeq
    val out = new ArrayBuffer[String](4)
    val n   = value.length
    var i   = 0
    val sb  = new java.lang.StringBuilder(16)
    while (i <= n) {
      val c = if (i < n) value.charAt(i) else ' '
      if (i < n && Character.isLetterOrDigit(c)) {
        sb.append(Character.toLowerCase(c))
      } else if (sb.length > 0) {
        val tok = sb.toString
        out += tok
        if (isDigits(tok)) out += s"#len${tok.length}"
        sb.setLength(0)
      }
      i += 1
    }
    if (out.isEmpty) EmptySeq else out.toSeq
  }

  private def isDigits(s: String): Boolean = {
    var i = 0
    while (i < s.length) { if (!Character.isDigit(s.charAt(i))) return false; i += 1 }
    s.nonEmpty
  }

  /** Q-grams of a whole string (used by D3L's name-similarity evidence). */
  def qgrams(s: String, q: Int = 3): Set[String] = {
    val norm   = s.toLowerCase.replaceAll("[^a-z0-9]+", " ").trim
    val padded = "<" + norm + ">"
    if (padded.length <= q) Set(padded)
    else (0 to padded.length - q).map(i => padded.substring(i, i + q)).toSet
  }
}
