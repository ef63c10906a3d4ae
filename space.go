package membottle

import "membottle/internal/mem"

// Addr is a simulated virtual address.
type Addr = mem.Addr

// newSpace isolates the mem dependency for NewSystem.
func newSpace() *mem.Space { return mem.NewSpace() }
