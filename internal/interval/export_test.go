package interval

// FillFreeBlocks replaces the trace-store free list with n full-length
// blocks whose every entry is e, so a test can start runs from an empty
// free list or from recycled blocks that still hold stale entries.
func FillFreeBlocks(n int, e uint64) {
	list := make([][]uint64, n)
	for i := range list {
		b := make([]uint64, blockEntries)
		for j := range b {
			b[j] = e
		}
		list[i] = b
	}
	freeBlocks.Lock()
	freeBlocks.list = list
	freeBlocks.Unlock()
}

// FreeBlocks returns the number of blocks on the free list.
func FreeBlocks() int {
	freeBlocks.Lock()
	defer freeBlocks.Unlock()
	return len(freeBlocks.list)
}
