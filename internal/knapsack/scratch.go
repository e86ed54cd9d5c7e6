package knapsack

// Scratch holds the reusable buffers of the knapsack solvers (the
// scratch-reuse discipline of internal/arena): item partitions, the
// capacity grid A, the adaptive-normalization grid, both pair-list
// DPs, and the solution buffers. A warm Scratch makes Solve and
// SolveBounded allocation-free in the steady state. The zero
// value is ready to use; a Scratch must not be shared between
// concurrent calls. Solutions produced with a Scratch alias its
// buffers (Solution.Selected, BoundedSolution.CountByType) and are
// valid only until the scratch's next use.
type Scratch struct {
	comp, incomp []int
	alphas       []float64
	grid         Grid
	incList      PairList
	compList     PairList
	selected     []int

	// SolveBounded's container expansion.
	items       []Item
	meta        []Container
	compFlags   []bool
	countByType []int

	// SolveDense's flat decision bitset, DP row, and selection.
	denseBits []uint64
	denseDP   []float64
	denseSel  []int

	// SolveConv's convolution engine (conv.go): the class grid, the
	// class-sorted compressible items and their runs, the merge-tree
	// node arena (convUsed nodes live; pts capacity retained across
	// solves), the level queues of the balanced merge, the candidate
	// buffer of one convolution, and the backtracking stack.
	convGrid  []float64
	convItems []convItem
	convRuns  []convRun
	convNodes []convNode
	convUsed  int
	convQueue []int32
	convNext  []int32
	convCand  []convPoint
	convStack [][2]int32
}
