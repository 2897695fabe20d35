package main

import (
	"fmt"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
)

// fleet is the generated population of one workload: a golden image
// and prover names derived from the workload seed, plus the report
// templates built from them in set-up. The fleet shares one key K, so
// for a given counter every prover's ERASMUS self-measurement is
// byte-identical — one template per counter serves the whole fleet,
// and the generator hashes nothing inside a timed window.
type fleet struct {
	seed    uint64
	image   []byte
	block   int
	names   []string
	history int

	tmpl *rattd.Prover
	// rounds[r] is the collection bundle every prover sends in round r:
	// counters r*history+1 .. (r+1)*history.
	rounds [][]*core.Report
}

func newFleet(seed uint64, provers, memSize, block, history int) (*fleet, error) {
	f := &fleet{seed: seed, block: block, history: history}
	f.image = rattd.GoldenImage(seed, memSize, block)
	f.names = make([]string, provers)
	for i := range f.names {
		f.names[i] = fmt.Sprintf("p%03x-%06d", seed&0xfff, i)
	}
	var err error
	f.tmpl, err = rattd.NewProver("tmpl", rattd.DefaultKey, f.image, block)
	return f, err
}

// bundle returns round r's collection, building templates up to r on
// first use (set-up sizes the pool for the whole window beforehand).
func (f *fleet) bundle(r int) ([]*core.Report, error) {
	for len(f.rounds) <= r {
		n := len(f.rounds)
		b := make([]*core.Report, f.history)
		for i := range b {
			rep, err := f.tmpl.SelfMeasure(uint64(n*f.history + i + 1))
			if err != nil {
				return nil, err
			}
			b[i] = rep
		}
		f.rounds = append(f.rounds, b)
	}
	return f.rounds[r], nil
}

// prebuild sizes the template pool to at least n rounds.
func (f *fleet) prebuild(n int) error {
	_, err := f.bundle(n - 1)
	return err
}

// values reshapes a pointer bundle into the value slice Server.Ingest
// takes (headers copied, byte fields shared).
func values(b []*core.Report) []core.Report {
	out := make([]core.Report, len(b))
	for i, r := range b {
		out[i] = *r
	}
	return out
}

// forged returns a copy of b whose tags are flipped in one bit: right
// nonce, right counter, wrong measurement.
func forged(b []core.Report) []core.Report {
	out := make([]core.Report, len(b))
	for i, r := range b {
		out[i] = r
		out[i].Tag = append([]byte(nil), r.Tag...)
		out[i].Tag[0] ^= 0x80
	}
	return out
}
