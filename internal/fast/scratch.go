package fast

import (
	"repro/internal/knapsack"
	"repro/internal/shelves"
)

// Scratch holds the reusable per-call state of the fast (3/2+ε) duals
// (the scratch-reuse discipline of internal/arena): the shelf and
// knapsack scratches shared by Alg1 and Alg3 (only one algorithm runs
// per call) and Alg3's item-typing buffers. A warm Scratch makes every
// Try allocation-free in the steady state (map-bucket reuse
// permitting); the produced schedule is then owned by the scratch and
// valid until its next use — Clone to keep it. The zero value is
// ready; a Scratch must not be shared between concurrent calls.
type Scratch struct {
	Shelves shelves.Scratch
	Knap    knapsack.Scratch

	// Build output, reused across probes.
	buildRes shelves.Result

	// Alg1/Alg3 per-Try buffers.
	shelf1 []int
	items  []knapsack.Item
	comp   []bool

	// Alg3 item typing (§4.3.1): grids, the type table, and the flat
	// job-by-type buckets (a counting sort, so no per-type slices).
	countGrid, timeGridD, timeGridD2, profitGrid []float64
	typeOf                                       map[typeKey]int32
	types                                        []knapsack.Type
	typeIdx                                      []int32 // type of part.Opt[k]
	typeOff                                      []int32 // running offset per type
	jobsByType                                   []int32 // Opt jobs grouped by type
}
