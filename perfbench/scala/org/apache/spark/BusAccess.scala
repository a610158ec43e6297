package org.apache.spark

/** Reaches the listener bus, which Spark keeps package-private: the tracer
  * must know that every event of a finished call reached its listener before
  * it reads the counts.
  */
object BusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
