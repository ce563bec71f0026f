package rate

// Shims binding the rate-control benchmarks to the allocation API.
// Hulls are cleared first so the benchmark prices the full stage —
// hull sweep plus λ search — as the pre-refactor Allocate did.

func benchAllocate(blocks []BlockRD, budget, workers int) []int {
	for i := range blocks {
		blocks[i].Hull = nil
	}
	return AllocateParallel(nil, blocks, budget, workers)
}

func benchHull(b *BlockRD) {
	b.Hull = nil // price a fresh sweep, not the cache
	b.ComputeHull(nil)
}
