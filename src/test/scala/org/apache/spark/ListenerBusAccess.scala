package org.apache.spark

/** Reaches the listener bus, which Spark keeps package-private, so a test can
  * wait until every event of a finished action reached its listeners.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
