package rbtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"membottle/internal/mem"
)

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if _, _, _, ok := tr.Find(100); ok {
		t.Fatal("Find on empty tree succeeded")
	}
	if tr.Delete(5) {
		t.Fatal("Delete on empty tree reported success")
	}
	if tr.Height() != 0 {
		t.Fatal("empty tree has nonzero height")
	}
}

func TestInsertFind(t *testing.T) {
	var tr Tree
	tr.Insert(0x1000, 0x100, "a")
	tr.Insert(0x3000, 0x1000, "b")
	tr.Insert(0x2000, 0x10, "c")

	cases := []struct {
		a    mem.Addr
		want string
		ok   bool
	}{
		{0x1000, "a", true},
		{0x10ff, "a", true},
		{0x1100, "", false}, // gap between a and c
		{0x2000, "c", true},
		{0x200f, "c", true},
		{0x2010, "", false},
		{0x3fff, "b", true},
		{0x4000, "", false},
		{0x0fff, "", false}, // below everything
	}
	for _, tc := range cases {
		_, _, v, ok := tr.Find(tc.a)
		if ok != tc.ok {
			t.Errorf("Find(%#x) ok=%v want %v", uint64(tc.a), ok, tc.ok)
			continue
		}
		if ok && v.(string) != tc.want {
			t.Errorf("Find(%#x) = %v want %v", uint64(tc.a), v, tc.want)
		}
	}
}

func TestInsertReplace(t *testing.T) {
	var tr Tree
	tr.Insert(0x1000, 0x100, "old")
	tr.Insert(0x1000, 0x200, "new")
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replacing insert", tr.Len())
	}
	_, size, v, ok := tr.Find(0x1150)
	if !ok || size != 0x200 || v.(string) != "new" {
		t.Fatalf("replace failed: size=%#x v=%v ok=%v", size, v, ok)
	}
}

func TestGet(t *testing.T) {
	var tr Tree
	tr.Insert(10, 5, 42)
	if v, ok := tr.Get(10); !ok || v.(int) != 42 {
		t.Fatalf("Get(10) = %v,%v", v, ok)
	}
	if _, ok := tr.Get(11); ok {
		t.Fatal("Get of interior address succeeded; Get is exact-base only")
	}
}

func TestDelete(t *testing.T) {
	var tr Tree
	for i := 0; i < 100; i++ {
		tr.Insert(mem.Addr(i*0x1000), 0x1000, i)
	}
	for i := 0; i < 100; i += 2 {
		if !tr.Delete(mem.Addr(i * 0x1000)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tr.Len())
	}
	for i := 0; i < 100; i++ {
		_, _, v, ok := tr.Find(mem.Addr(i*0x1000 + 8))
		if i%2 == 0 {
			if ok {
				t.Fatalf("deleted block %d still found", i)
			}
		} else if !ok || v.(int) != i {
			t.Fatalf("surviving block %d: found=%v v=%v", i, ok, v)
		}
	}
	if msg := tr.checkInvariants(); msg != "" {
		t.Fatalf("invariant violated after deletes: %s", msg)
	}
}

func TestAscendOrder(t *testing.T) {
	var tr Tree
	rng := rand.New(rand.NewSource(7))
	bases := rng.Perm(500)
	for _, b := range bases {
		tr.Insert(mem.Addr(b*0x40), 0x40, b)
	}
	var got []mem.Addr
	tr.Ascend(func(base mem.Addr, size uint64, v Value) bool {
		got = append(got, base)
		return true
	})
	if len(got) != 500 {
		t.Fatalf("Ascend visited %d nodes, want 500", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Ascend not in increasing base order")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	var tr Tree
	for i := 0; i < 10; i++ {
		tr.Insert(mem.Addr(i), 1, nil)
	}
	count := 0
	tr.Ascend(func(mem.Addr, uint64, Value) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Ascend visited %d after early stop, want 3", count)
	}
}

func TestFindWithCostDepth(t *testing.T) {
	var tr Tree
	for i := 0; i < 1024; i++ {
		tr.Insert(mem.Addr(i*0x1000), 0x1000, nil)
	}
	_, _, _, depth, ok := tr.FindWithCost(0x5008)
	if !ok {
		t.Fatal("FindWithCost missed an existing block")
	}
	if depth < 1 || depth > tr.Height() {
		t.Fatalf("depth %d outside [1,%d]", depth, tr.Height())
	}
	// A red-black tree of n nodes has height <= 2*log2(n+1).
	if max := 2 * int(math.Ceil(math.Log2(1025))); tr.Height() > max {
		t.Fatalf("height %d exceeds red-black bound %d", tr.Height(), max)
	}
}

// TestInvariantsUnderChurn exercises the tree with the allocation churn the
// object map produces, validating red-black invariants continuously.
func TestInvariantsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var tr Tree
	live := make(map[mem.Addr]bool)
	for step := 0; step < 4000; step++ {
		if len(live) == 0 || rng.Intn(5) < 3 {
			base := mem.Addr(rng.Intn(1<<20) * 0x40)
			tr.Insert(base, 0x40, step)
			live[base] = true
		} else {
			n := rng.Intn(len(live))
			for base := range live {
				if n == 0 {
					if !tr.Delete(base) {
						t.Fatalf("step %d: delete of live base %#x failed", step, uint64(base))
					}
					delete(live, base)
					break
				}
				n--
			}
		}
		if step%97 == 0 {
			if msg := tr.checkInvariants(); msg != "" {
				t.Fatalf("step %d: %s", step, msg)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: Len=%d want %d", step, tr.Len(), len(live))
			}
		}
	}
	if msg := tr.checkInvariants(); msg != "" {
		t.Fatalf("final: %s", msg)
	}
}

// TestAgainstReferenceModel compares the tree against a map model over a
// random workload: Find must agree exactly.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	var tr Tree
	model := make(map[mem.Addr]uint64)

	refFloor := func(a mem.Addr) (mem.Addr, bool) {
		var best mem.Addr
		found := false
		for b := range model {
			if b <= a && (!found || b > best) {
				best, found = b, true
			}
		}
		return best, found
	}

	for step := 0; step < 2500; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			base := mem.Addr(rng.Intn(4096) * 0x100)
			size := uint64(rng.Intn(0x100) + 1)
			tr.Insert(base, size, nil)
			model[base] = size
		case 2:
			if len(model) > 0 {
				n := rng.Intn(len(model))
				for base := range model {
					if n == 0 {
						tr.Delete(base)
						delete(model, base)
						break
					}
					n--
				}
			}
		case 3:
			a := mem.Addr(rng.Intn(4096*0x100 + 0x200))
			// stabbing query
			fb, fOK := refFloor(a)
			wantFind := fOK && a < fb+mem.Addr(model[fb])
			b, size, _, ok := tr.Find(a)
			if ok != wantFind || (ok && (b != fb || size != model[fb])) {
				t.Fatalf("step %d: Find(%#x) = %#x,%d,%v want %#x,%d,%v", step, uint64(a),
					uint64(b), size, ok, uint64(fb), model[fb], wantFind)
			}
		}
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	var tr Tree
	for i := 0; i < b.N; i++ {
		base := mem.Addr((i % 10000) * 0x1000)
		tr.Insert(base, 0x1000, nil)
		if i%2 == 1 {
			tr.Delete(base)
		}
	}
}

func BenchmarkFind(b *testing.B) {
	var tr Tree
	for i := 0; i < 10000; i++ {
		tr.Insert(mem.Addr(i*0x1000), 0x1000, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(mem.Addr((i % 10000) * 0x1000))
	}
}
