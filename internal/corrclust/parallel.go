package corrclust

import (
	"runtime"
	"strconv"
	"sync"

	"clusteragg/internal/obs"
)

// MatrixFromInstanceParallel materializes an Instance into a Matrix using
// the given number of worker goroutines (0 means GOMAXPROCS). Instance.Dist
// must be safe for concurrent use, which holds for every Instance in this
// repository. Materialization is O(m·n²) work for aggregation problems and
// dominates full-size runs, so it parallelizes almost perfectly.
// Matrix-backed sources (including counting-wrapped ones) skip the workers
// entirely: MatrixFromInstance copies the condensed storage directly.
func MatrixFromInstanceParallel(inst Instance, workers int) *Matrix {
	n := inst.N()
	if mx, _ := matrixFast(inst); mx != nil {
		return MatrixFromInstance(inst) // one condensed copy beats any fan-out
	}
	m := NewMatrix(n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 256 {
		return MatrixFromInstance(inst)
	}

	// Static row interleaving: row u costs n-1-u entries, so contiguous
	// blocks would be badly imbalanced; striding by worker count balances
	// to within one row. A row-capable oracle fills each row in one bulk
	// call (concurrency-safe by the RowDistancer contract), with the reads
	// charged to any counting layers afterwards in one lump equal to the
	// per-call count.
	rd, charge := rowFast(inst)
	var ids []int
	if rd != nil {
		ids = identity(n)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: "materialize", Worker: strconv.Itoa(start)}, func() {
				for u := start; u < n; u += workers {
					row := m.Row(u)
					if rd != nil {
						rd.DistRowTo(u, ids[u+1:], row)
						continue
					}
					for j := range row {
						row[j] = inst.Dist(u, u+1+j)
					}
				}
			})
		}(w)
	}
	wg.Wait()
	if rd != nil {
		charge(pairs(n))
	}
	return m
}

// lsNoMove marks an object whose proposal found no improving move.
const lsNoMove = -2

// proposeMoves evaluates every object's best move against the current
// (frozen) sweep state on contiguous worker stripes. In table mode the
// evaluation reads only the maintained affinity table; in growing and
// rebuild modes each worker gathers rows into its own scratch buffers
// (Instance.Dist is concurrency-safe by contract, and counting layers
// charge atomically). The only shared writes are growing mode's away[v]
// recordings, and each object belongs to exactly one stripe, so stripes
// race nothing and the proposal for each object is exactly what a
// sequential evaluation at pass start would produce. props[v] receives the
// move target (-1 = fresh singleton) or lsNoMove, and gains[v] the move's
// objective improvement (observational — see lsKernel.evaluate).
func (k *lsKernel) proposeMoves(props []int, gains []float64, workers int) {
	chunk := (k.n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > k.n {
			hi = k.n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: "localsearch:propose", Worker: strconv.Itoa(worker)}, func() {
				var row, m []float64
				if !k.tableBuilt {
					row = make([]float64, k.n)
					if !k.growing {
						m = make([]float64, len(k.size))
					}
				}
				for v := lo; v < hi; v++ {
					var target int
					var gain float64
					var ok bool
					switch {
					case k.tableBuilt:
						target, gain, ok = k.evaluate(v)
					case k.growing:
						target, gain, ok = k.evaluateGrowing(v, k.readRowInto(v, row))
					default:
						target, gain, ok = k.evaluateRebuild(v, k.readRowInto(v, row), m)
					}
					if ok {
						props[v], gains[v] = target, gain
					} else {
						props[v] = lsNoMove
					}
				}
			})
		}(w, lo, hi)
	}
	wg.Wait()
	k.proposals += int64(k.n)
}

// sweepParallel is one propose/validate pass: proposals are computed in
// parallel against the frozen pass-start state, then validated and applied
// sequentially in object order. Until the first move is applied the state
// equals the frozen snapshot, so proposals are exact and apply directly;
// from the first applied move on, every later object is re-evaluated
// against the live state before deciding. The pass therefore makes — float
// for float — the same decisions as sweepSequential, for every worker
// count; the parallel phase only pre-pays evaluation work that stays valid.
func (k *lsKernel) sweepParallel(props []int, gains []float64, workers int, onMove func(v, from, to int)) bool {
	k.maybeBuildTable()
	k.proposeMoves(props, gains, workers)
	improved := false
	movedSince := false
	for v := 0; v < k.n; v++ {
		target := props[v]
		gain := gains[v]
		if movedSince {
			var ok bool
			target, gain, ok = k.evalSeq(v)
			if !ok {
				continue
			}
		} else if target == lsNoMove {
			continue
		}
		from := k.labels[v]
		k.apply(v, target)
		k.improvement += gain
		movedSince = true
		improved = true
		if onMove != nil {
			onMove(v, from, k.labels[v])
		}
	}
	return improved
}
