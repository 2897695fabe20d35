package verifier

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFifoTableMatchesModel drives a fifoTable and a slice-backed model
// with the same random inserts. Hashes are drawn from a handful of
// values so chains grow long and evictions unlink from a chain's head,
// middle and tail; after every insert a lookup of every key ever used
// must find exactly the last keep distinct insertions, and each in
// insertion order.
func TestFifoTableMatchesModel(t *testing.T) {
	for _, keep := range []int{0, 1, 2, 5, 16} {
		rng := rand.New(rand.NewSource(int64(keep) + 1))
		tab := newFifoTable[int](keep)
		var model []int // keys, oldest first
		find := func(key int) bool {
			h := uint64(key % 3) // three chains' worth of hashes, whatever the table's size
			for e := tab.first(h); e != nil; e = e.next.Load() {
				if e.hash == h && e.val == key {
					return true
				}
			}
			return false
		}
		for key := 0; key < 400; key++ {
			e := &fifoEntry[int]{hash: uint64(key % 3), val: key}
			bound := keep
			if rng.Intn(8) == 0 {
				bound += 3 // the bound may move between inserts
			}
			tab.insert(e, bound)
			model = append(model, key)
			model = model[max(0, len(model)-max(bound, 1)):]
			for k := 0; k <= key; k++ {
				if got, want := find(k), slices.Contains(model, k); got != want {
					t.Fatalf("keep %d after inserting %d: key %d found=%v, model %v", keep, key, k, got, model)
				}
			}
			var order []int
			tab.each(func(v *int) { order = append(order, *v) })
			if !slices.Equal(order, model) || tab.n != len(model) {
				t.Fatalf("keep %d after inserting %d: table holds %v (n=%d), model %v", keep, key, order, tab.n, model)
			}
		}
	}
}
