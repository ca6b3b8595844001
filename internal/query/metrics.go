package query

import (
	"math"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// DefaultG0 is the effectiveness threshold of §6.2: a query estimate is
// "effective" when its relative error is at most G0.
const DefaultG0 = 5.0

// Accuracy aggregates the two §6.2 metrics over a query set.
type Accuracy struct {
	// AvgRelErr is e(Q): the mean relative error over all queries
	// (Eq. 13). Queries with zero true frequency are excluded (they cannot
	// occur when queries are drawn from the stream, but defensive callers
	// may pass arbitrary sets); Skipped counts them.
	AvgRelErr float64
	// Effective is g(Q): the number of queries with relative error ≤ G0
	// (Eq. 14).
	Effective int
	// Total is the number of evaluated queries.
	Total int
	// Skipped counts queries excluded for zero true frequency or a
	// non-finite relative error.
	Skipped int
	// MaxRelErr is the worst relative error observed.
	MaxRelErr float64
	// Below counts edge answers under the true frequency, and OverBound
	// those above it by more than their reported ErrorBound (edge queries
	// only).
	Below, OverBound int
}

// observe folds one query's relative error into the accumulator, guarding
// the Eq. 13 mean against non-finite values: a single +Inf (zero-truth,
// nonzero-estimate) or NaN sample would otherwise poison the whole
// aggregate, so such queries are counted in Skipped and excluded from both
// the Eq. 13 average and the Eq. 14 effective count.
func (acc *Accuracy) observe(sum *float64, er, g0 float64) {
	if math.IsInf(er, 0) || math.IsNaN(er) {
		acc.Skipped++
		return
	}
	*sum += er
	if er <= g0 {
		acc.Effective++
	}
	if er > acc.MaxRelErr {
		acc.MaxRelErr = er
	}
	acc.Total++
}

// finish resolves the Eq. 13 mean.
func (acc *Accuracy) finish(sum float64) {
	if acc.Total > 0 {
		acc.AvgRelErr = sum / float64(acc.Total)
	}
}

// EvaluateEdgeQueries runs the whole edge-query set against the estimator
// in one EstimateBatch pass, compares with exact truth, and folds the §6.2
// metrics with threshold g0 (use DefaultG0 for the paper's setting).
func EvaluateEdgeQueries(est core.Estimator, exact *stream.ExactCounter, queries []EdgeQuery, g0 float64) Accuracy {
	var acc Accuracy
	if len(queries) == 0 {
		return acc
	}
	res := est.EstimateBatch(queries)

	var sum float64
	for i, q := range queries {
		truth := exact.EdgeFrequency(q.Src, q.Dst)
		if truth == 0 {
			acc.Skipped++
			continue
		}
		acc.observe(&sum, RelativeError(float64(res[i].Estimate), float64(truth)), g0)
		switch over := res[i].Estimate - truth; {
		case over < 0:
			acc.Below++
		case float64(over) > res[i].ErrorBound:
			acc.OverBound++
		}
	}
	acc.finish(sum)
	return acc
}

// EvaluateSubgraphQueries is the subgraph analogue of EvaluateEdgeQueries
// (Eq. 15 relative error, same two metrics). The whole query set resolves
// through one batched estimator pass via AnswerBatch.
func EvaluateSubgraphQueries(est core.Estimator, exact *stream.ExactCounter, queries []SubgraphQuery, g0 float64) Accuracy {
	var acc Accuracy
	if len(queries) == 0 {
		return acc
	}
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = q
	}
	responses := AnswerBatch(est, qs)

	var sum float64
	lookup := exact.EdgeFrequency
	for i, q := range queries {
		truth := ExactSubgraph(lookup, q)
		if truth == 0 {
			acc.Skipped++
			continue
		}
		acc.observe(&sum, RelativeError(responses[i].Value, truth), g0)
	}
	acc.finish(sum)
	return acc
}

// EvaluateEdgeQueriesFiltered evaluates only the queries selected by keep,
// used by the Table-1 experiment to isolate outlier-sketch queries.
func EvaluateEdgeQueriesFiltered(est core.Estimator, exact *stream.ExactCounter, queries []EdgeQuery, g0 float64, keep func(EdgeQuery) bool) Accuracy {
	sel := make([]EdgeQuery, 0, len(queries))
	for _, q := range queries {
		if keep(q) {
			sel = append(sel, q)
		}
	}
	return EvaluateEdgeQueries(est, exact, sel, g0)
}
