package org.apache.spark

/** Spark delivers listener events on a background thread. The benchmark
  * reads its listener's counters only after every event posted so far has
  * been handled; the bus is `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
