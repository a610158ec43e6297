package perfbench

import repro.eval.Metrics.PrAtK

/** Precision and recall at k = 1, 5, 10 of each system on each workload, as
  * the program gave them when the benchmark was defined. Corpora are fixed
  * by their generators and every system is deterministic, so these hold for
  * every seed; a change that moves any of them at three decimals gives
  * different answers.
  */
object Expected {
  private val table: Map[(String, String), Seq[(Double, Double)]] = Map(
    ("xs-systems", "WarpGate") -> Seq((1.000, 0.431), (0.537, 1.000), (0.269, 1.000)),
    ("xs-systems", "Aurum")    -> Seq((0.857, 0.386), (0.303, 0.629), (0.151, 0.629)),
    ("xs-systems", "D3L")      -> Seq((1.000, 0.431), (0.537, 1.000), (0.269, 1.000)),
    ("xs-interactive", "WarpGate") -> Seq((1.000, 0.431), (0.537, 1.000), (0.269, 1.000)),
    ("xs-interactive", "Aurum")    -> Seq((0.914, 0.405), (0.286, 0.586), (0.143, 0.586)),
    ("xs-interactive", "D3L")      -> Seq((1.000, 0.431), (0.537, 1.000), (0.269, 1.000)),
  )

  def pr(workload: String, system: String): Seq[PrAtK] =
    table.get((workload, system)).toSeq.flatMap(_.zip(Main.Ks).map {
      case ((p, r), k) => PrAtK(k, p, r)
    })

  def render(pr: Seq[PrAtK]): String =
    pr.sortBy(_.k).map(x => f"k=${x.k} P=${x.precision}%.3f R=${x.recall}%.3f").mkString(" ")
}
