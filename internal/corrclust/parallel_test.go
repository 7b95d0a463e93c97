package corrclust

import (
	"math/rand"
	"testing"
)

func TestMatrixFromInstanceParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{1, 2, 100, 300, 517} {
		inst := aggInstance(t, randClusterings(rng, 5, n, 4)...)
		for _, workers := range []int{0, 1, 3, 16} {
			got := MatrixFromInstanceParallel(inst, workers)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if got.Dist(u, v) != inst.Dist(u, v) {
						t.Fatalf("n=%d workers=%d: mismatch at (%d,%d)", n, workers, u, v)
					}
				}
			}
		}
	}
}

func TestParallelEmptyInstance(t *testing.T) {
	empty := NewMatrix(0)
	if got := MatrixFromInstanceParallel(empty, 8); got.N() != 0 {
		t.Error("parallel materialization of empty instance")
	}
}
