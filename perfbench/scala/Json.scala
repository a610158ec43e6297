package perfbench

/** Minimal JSON rendering for the result line and the span file. */
object Json {
  /** Already-rendered JSON, embedded as is. */
  final case class Raw(json: String)

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def value(v: Any): String = v match {
    case null                 => "null"
    case b: Boolean           => b.toString
    case d: Double            =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      // every digit: runs are compared on raw measurements
      java.lang.Double.toString(d)
    case n: Int               => n.toString
    case n: Long              => n.toString
    case s: String            => str(s)
    case Raw(json)            => json
    case other                => str(other.toString)
  }

  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    (sb += '"').toString
  }
}
