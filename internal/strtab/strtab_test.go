package strtab

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// rec56 stands in for a 56-byte value, the size of rattd's prover record.
type rec56 struct {
	a    [6]uint64
	b, c uint32
}

// TestTableMatchesMap drives a table and a map model through one seeded
// sequence of finds and get-or-adds, walking the table every 50 000
// steps, for a 56-byte value and for struct{}. Keys are filed four to a
// hash half, so probes keep meeting words whose hash half matches and
// whose key does not, and the index doubles a dozen times on the way. A
// key is found exactly when it was added, under the ID it was added
// under, and IDs count up from 1; a walk visits every entry once; a key
// sharing an added key's hash is not found; and an entry pointer taken
// first still addresses the same key and the same value after 100 000
// further adds.
func TestTableMatchesMap(t *testing.T) {
	t.Run("rec56", func(t *testing.T) {
		testTableMatchesMap(t, rec56{a: [6]uint64{7, 0, 0, 0, 0, 9}, b: 42, c: 1})
	})
	t.Run("struct{}", func(t *testing.T) {
		testTableMatchesMap(t, struct{}{})
	})
}

func testTableMatchesMap[V comparable](t *testing.T, mark V) {
	const keys, ops = 400_000, 300_000
	hashOf := func(k int) uint64 { return mix64(uint64(k/4))&^0xffffffff | uint64(k) }
	keyOf := func(k int) string { return fmt.Sprintf("p%06d", k) }

	const anchorHash = 0xa5a5a5a5_5a5a5a5a
	var tb Table[V]
	if id := tb.Find("anchor", anchorHash); id != 0 {
		t.Fatalf("an empty table finds ID %d", id)
	}
	if id := tb.Add("anchor", anchorHash); id != 1 {
		t.Fatalf("first add got ID %d, want 1", id)
	}
	anchor := tb.At(1)
	anchor.Val = mark
	model := map[string]uint32{"anchor": 1}

	walk := func(op int) {
		if int(tb.Len()) != len(model) {
			t.Fatalf("op %d: table holds %d entries, model %d", op, tb.Len(), len(model))
		}
		for id := uint32(1); id <= tb.Len(); id++ {
			if e := tb.At(id); model[e.Key] != id {
				t.Fatalf("op %d: walk meets %q at %d, model has it at %d", op, e.Key, id, model[e.Key])
			}
		}
	}
	rng := rand.New(rand.NewPCG(27, 27))
	adds := 0
	for op := 0; op < ops; op++ {
		k := rng.IntN(keys)
		key, h := keyOf(k), hashOf(k)
		want := model[key]
		if rng.IntN(3) == 0 {
			if id := tb.Find(key, h); id != want {
				t.Fatalf("op %d: Find(%q) = %d, model %d", op, key, id, want)
			}
			continue
		}
		// Get-or-add, the way rattd enrols a prover.
		id := tb.Find(key, h)
		added := id == 0
		if added {
			id = tb.Add(key, h)
		}
		if added != (want == 0) || tb.At(id).Key != key || want != 0 && id != want {
			t.Fatalf("op %d: get-or-add(%q) = added %v at %d, model %d", op, key, added, id, want)
		}
		if added {
			if int(id) != len(model)+1 {
				t.Fatalf("op %d: %q added at %d, want the next ID %d", op, key, id, len(model)+1)
			}
			model[key] = id
			adds++
		}
		if op%50_000 == 0 {
			walk(op)
		}
	}
	walk(ops)
	if adds < 100_000 {
		t.Fatalf("only %d adds after the anchor, want >= 100000", adds)
	}
	for k := 0; k < 1000; k++ {
		if id := tb.Find("x"+keyOf(k), hashOf(k)); id != 0 {
			t.Fatalf("Find(%q) under %q's hash returned %q", "x"+keyOf(k), keyOf(k), tb.At(id).Key)
		}
	}
	if tb.Find("anchor", anchorHash) != 1 || tb.At(1) != anchor || anchor.Key != "anchor" || anchor.Val != mark {
		t.Fatalf("the anchor entry moved or changed: %q %+v", anchor.Key, anchor.Val)
	}
}

// mix64 is the splitmix64 finalizer: it spreads the model's hash halves
// over the index.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
