package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// compare prints one row per workload and end-to-end metric and reports
// whether any of them got worse. A metric whose run-to-run spread on either
// side is wider than its bound is unresolved, not unchanged.
func compare(w io.Writer, base, next *resultFile, boundsX float64) (worse bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tdelta\tbound\tverdict\t")
	for _, bw := range base.Workloads {
		var nw *workloadResult
		for _, cand := range next.Workloads {
			if cand.Name == bw.Name {
				nw = cand
			}
		}
		if nw == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tmissing\t\n", bw.Name)
			worse = true
			continue
		}
		for _, def := range endToEnd {
			b, n := bw.Metrics[def.Name], nw.Metrics[def.Name]
			if b == nil || n == nil {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\tmissing\t\n", bw.Name, def.Name, def.Unit)
				worse = true
				continue
			}
			bound := def.Bound * boundsX
			// The bound is a share of the base median, as the driver takes
			// it. worsening > 0 means worse, whatever the metric's direction.
			// A base of 0 has no share to take: any move away from it is
			// infinitely large, so its direction alone decides.
			change := n.Median - b.Median
			worsening := change
			if def.Better == "higher" {
				worsening = -change
			}
			switch {
			case b.Median != 0:
				change /= math.Abs(b.Median)
				worsening /= math.Abs(b.Median)
			case change != 0:
				change, worsening = math.Copysign(math.Inf(1), change), math.Copysign(math.Inf(1), worsening)
			}
			verdict := "same"
			switch {
			case b.spread() > bound || n.spread() > bound:
				verdict = "unresolved"
			case worsening > bound:
				verdict = "worse"
				worse = true
			case worsening < -bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%% of %.6g\t%.1f%%\t%s\t\n",
				bw.Name, def.Name, def.Unit, b.Median, n.Median, 100*change, b.Median, 100*bound, verdict)
		}
		if nw.Failed*bw.Attempted > bw.Failed*nw.Attempted {
			fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d of %d\t%d of %d\t-\tno increase\tworse\t\n",
				bw.Name, bw.Failed, bw.Attempted, nw.Failed, nw.Attempted)
			worse = true
		}
	}
	tw.Flush()
	return worse
}
