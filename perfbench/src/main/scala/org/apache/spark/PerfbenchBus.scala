package org.apache.spark

/** Spark delivers listener events on its own thread, and the bus that can
  * wait for them is package-private. Job counts are read only after the
  * bus is drained, so no event of a finished operation is missed.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
