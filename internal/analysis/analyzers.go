package analysis

// All returns the full schedlint suite in the order findings are most
// useful to read: structural invariants first (docs, wire protocol,
// metric catalog), then the semantic ones (context, FP safety,
// hot-path allocations, scratch reuse), then the ownership and
// concurrency family added in PR 7 (scratch escape, lock discipline,
// goroutine joins), then the nested-locking ban, the untyped
// sync/atomic ban and channel discipline.
func All() []*Analyzer {
	return []*Analyzer{
		PkgDoc,
		WireCode,
		ObsReg,
		CtxFlow,
		FPConv,
		HotAlloc,
		ResetCheck,
		ScratchOwn,
		LockGuard,
		GoroLeak,
		LockOrder,
		AtomicMix,
		ChanRule,
	}
}

// ByName resolves a comma-separated analyzer selection against All,
// for schedlint's -run flag. Unknown names are returned so the caller
// can report them.
func ByName(names []string) (sel []*Analyzer, unknown []string) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	for _, n := range names {
		if a, ok := byName[n]; ok {
			sel = append(sel, a)
		} else {
			unknown = append(unknown, n)
		}
	}
	return sel, unknown
}
