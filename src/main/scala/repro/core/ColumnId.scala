package repro.core

/** Fully-qualified identifier of a column in a (multi-database) corpus.
  *
  * `database` models the CDW database/schema a table lives in — WarpGate's
  * value proposition is surfacing join paths *across* databases, and the
  * Spider evaluation scopes search *within* each database, so the database
  * name must travel with the column identity.
  */
final case class ColumnId(database: String, table: String, column: String) {
  /** Flat key for display and ordering. Not unique when names contain `.`:
    * `ColumnId("a", "b.c", "d")` and `ColumnId("a", "b", "c.d")` share it.
    */
  def key: String = s"$database.$table.$column"
  override def toString: String = key
}

/** One ranked answer of a discovery query. */
final case class SearchResult(query: ColumnId, candidate: ColumnId, score: Double)
