package core

import (
	"io"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
)

// Engine invariants under randomized configurations and concurrent
// benign writers. For any mechanism, block geometry, writer activity
// and priorities:
//
//	I1. every block is covered exactly once per round, in the derived
//	    order;
//	I2. after the session ends (and extended locks are released), no
//	    lock but ROM remains and interrupts are enabled;
//	I3. coverage instants are non-decreasing along the traversal;
//	I4. the verifier-side recomputation accepts iff no covered block's
//	    content at its coverage instant differed from the golden image.
//
// I4 is checked indirectly: with writers disabled the tag must verify;
// with writers enabled the test tracks the content actually hashed.
func TestPropertyEngineInvariants(t *testing.T) {
	mechs := Mechanisms()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xE1))
		opts := Preset(mechs[rng.IntN(len(mechs))], suite.SHA256)
		if opts.Shuffled && rng.IntN(2) == 0 {
			opts.Rounds = 1 + rng.IntN(3)
		}
		blocks := 4 + rng.IntN(28)
		// Block time must dominate context-switch cost so the writer
		// cannot saturate the CPU: 4-16 KiB blocks at 7 ns/B.
		blockSize := 4096 << rng.IntN(3)

		k := sim.NewKernel()
		m := mem.New(mem.Config{Size: blocks * blockSize, BlockSize: blockSize,
			ROMBlocks: 1, Clock: k.Now, LogWrites: true})
		m.FillRandom(rng)
		dev := device.New(device.Config{Kernel: k, Mem: m,
			Profile: costmodel.ODROIDXU4(), Trace: &trace.Log{}})

		// Optional concurrent writer at random priority, stopped when
		// the session completes.
		var ticker *sim.Ticker
		if rng.IntN(2) == 0 {
			writer := dev.NewTask("writer", 1+rng.IntN(20))
			blockTime := dev.Profile.StreamTime(suite.SHA256, blockSize)
			ticker = k.NewTicker(blockTime*3+sim.Duration(rng.Int64N(int64(blockTime))), func(sim.Time) {
				b := 1 + rng.IntN(blocks-1)
				writer.Submit(sim.Microsecond, func() {
					_ = m.Write(b*blockSize+2, []byte{byte(rng.Uint32())})
				})
			})
		}

		task := dev.NewTask("mp", 5+rng.IntN(10))
		s, err := NewSession(dev, task, opts, []byte{byte(seed)}, 1)
		if err != nil {
			return false
		}
		var reports []*Report
		var coveredSeq [][]int // per round: blocks in coverage order
		var cur []int
		s.Hooks = Hooks{
			OnStart: func(Progress) { cur = nil },
			OnBlock: func(p Progress) {
				if p.KnownOrder != nil {
					cur = append(cur, p.KnownOrder[p.Count-1])
				} else {
					cur = append(cur, -1) // secret order: count only
				}
			},
			OnFinish: func(*Report) { coveredSeq = append(coveredSeq, cur) },
		}
		s.Start(func(rr []*Report, err error) {
			if err == nil {
				reports = rr
			}
			if ticker != nil {
				ticker.Stop()
			}
		})
		k.Run()
		s.Release()
		k.Run()

		if len(reports) != opts.NumRounds() {
			return false
		}
		for ri, rep := range reports {
			// I1: coverage complete, order is a permutation.
			seen := map[int]bool{}
			for _, b := range rep.Order {
				if b < 0 || b >= blocks || seen[b] {
					return false
				}
				seen[b] = true
			}
			if len(rep.Order) != blocks {
				return false
			}
			for b := 0; b < blocks; b++ {
				if rep.Coverage.CoveredAt[b] < 0 {
					return false
				}
			}
			// I1b: hook-observed count matches.
			if len(coveredSeq[ri]) != blocks {
				return false
			}
			// I3: coverage instants non-decreasing along the order.
			prev := sim.Time(-1)
			for _, b := range rep.Order {
				at := rep.Coverage.CoveredAt[b]
				if at < prev {
					return false
				}
				prev = at
			}
			if rep.TS > rep.TE {
				return false
			}
		}
		// I2: only ROM locked, interrupts enabled.
		if m.LockedCount() != 1 || dev.InterruptsDisabled() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Without any writer, every mechanism's every round verifies against
// the golden image for random geometries and hashes.
func TestPropertyCleanDeviceAlwaysVerifies(t *testing.T) {
	hashes := suite.HashIDs()
	mechs := Mechanisms()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xE2))
		opts := Preset(mechs[rng.IntN(len(mechs))], hashes[rng.IntN(len(hashes))])
		blocks := 2 + rng.IntN(30)
		blockSize := 64 * (1 + rng.IntN(4))

		k := sim.NewKernel()
		m := mem.New(mem.Config{Size: blocks * blockSize, BlockSize: blockSize,
			ROMBlocks: 1, Clock: k.Now})
		m.FillRandom(rng)
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		ref := m.Snapshot()

		task := dev.NewTask("mp", 5)
		msr, err := NewMeasurement(dev, task, opts, []byte{1, 2, byte(seed)}, 0)
		if err != nil {
			return false
		}
		var rep *Report
		msr.Start(func(rr *Report, err error) {
			if err == nil {
				rep = rr
			}
		})
		k.Run()
		msr.Release()
		if rep == nil {
			return false
		}

		scheme := suite.Scheme{Hash: opts.Hash, Key: dev.AttestationKey}
		order := DeriveOrder(dev.AttestationKey, rep.Nonce, rep.Round, blocks, opts.Shuffled)
		ok, err := scheme.VerifyStream(func(w io.Writer) error {
			ExpectedStreamForReport(w, opts.Hash, rep, ref, blockSize, order)
			return nil
		}, rep.Tag)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Region measurements cover exactly the region and leave the rest
// untouched, for random regions.
func TestPropertyRegionCoverage(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xE3))
		blocks := 8 + rng.IntN(24)
		start := 1 + rng.IntN(blocks-2)
		count := 1 + rng.IntN(blocks-start)

		k := sim.NewKernel()
		m := mem.New(mem.Config{Size: blocks * 128, BlockSize: 128, ROMBlocks: 1, Clock: k.Now})
		m.FillRandom(rng)
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})

		opts := Options{Mechanism: "TyTAN", Hash: suite.SHA256,
			Region: device.Region{Start: start, Count: count}}
		task := dev.NewTask("mp", 5)
		msr, err := NewMeasurement(dev, task, opts, []byte{byte(seed)}, 0)
		if err != nil {
			return false
		}
		var rep *Report
		msr.Start(func(rr *Report, err error) {
			if err == nil {
				rep = rr
			}
		})
		k.Run()
		if rep == nil {
			return false
		}
		for b := 0; b < blocks; b++ {
			in := b >= start && b < start+count
			if (rep.Coverage.CoveredAt[b] >= 0) != in {
				return false
			}
		}
		return len(rep.Order) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
