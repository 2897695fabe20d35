package verifier

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/inccache"
	"saferatt/internal/mem"
	"saferatt/internal/suite"
)

// TestGoldenCollectedWithItsLastUser is the regression for the
// process-wide digest-cache table that kept every golden it ever saw: a
// golden's digest caches belong to the golden, so once no device,
// verifier or registry holds it, it is collected, caches and all.
func TestGoldenCollectedWithItsLastUser(t *testing.T) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	nonce := []byte("gc-nonce")

	t.Run("device and Batch", func(t *testing.T) {
		collected := make(chan struct{})
		func() {
			g := mem.RandomGolden(4096, 256, 1, rand.New(rand.NewPCG(31, 31)))
			runtime.AddCleanup(g, func(c chan struct{}) { close(c) }, collected)
			rep, key := measureOnce(t, mem.NewShared(g, mem.SharedConfig{}), opts, nonce, 0)
			if ok, err := NewBatch(suite.SHA256, ImageOfGolden(g)).Verify(key, rep, false); err != nil || !ok {
				t.Fatalf("clean report: ok=%v err=%v", ok, err)
			}
			if inccache.SharedImage(g, inccache.DigestHash(suite.SHA256)).Stats().Misses == 0 {
				t.Fatal("the golden's digest cache was never filled")
			}
		}()
		if !collectedAfterGC(collected) {
			t.Fatal("a golden nothing references any more was not collected")
		}
	})

	t.Run("ImageSet.Rotate", func(t *testing.T) {
		s := NewImageSet(ImageSetConfig{})
		collected := make(chan struct{})
		func() {
			g1 := mem.RandomGolden(4096, 256, 1, rand.New(rand.NewPCG(32, 32)))
			runtime.AddCleanup(g1, func(c chan struct{}) { close(c) }, collected)
			if _, err := s.Add("dev", ImageOfGolden(g1)); err != nil {
				t.Fatal(err)
			}
			rep, key := measureOnce(t, mem.NewShared(g1, mem.SharedConfig{}), opts, nonce, 0)
			if ok, err := s.Verify(key, ImageID{Name: "dev"}, rep, false); err != nil || !ok {
				t.Fatalf("clean report: ok=%v err=%v", ok, err)
			}
			b2 := append([]byte(nil), g1.Bytes()...)
			b2[len(b2)-1] ^= 1
			if _, err := s.Rotate("dev", ImageOfGolden(mem.NewGolden(b2, 256, 1))); err != nil {
				t.Fatal(err)
			}
		}()
		if collectedAfterGC(collected) {
			t.Fatal("the retired version's golden was collected while the registry pins it")
		}
		for s.Stats().Images > 1 {
			s.AdvanceEpoch()
		}
		if !collectedAfterGC(collected) {
			t.Fatal("the retired version's golden was not collected once its grace lapsed")
		}
	})
}

// collectedAfterGC runs the collector until c closes, or gives up.
func collectedAfterGC(c <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-c:
			return true
		default:
			runtime.Gosched()
		}
	}
	return false
}
