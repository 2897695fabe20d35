package rattd

import (
	"testing"

	"saferatt/internal/transport"
)

// TestE2ELoopbackFleet is the acceptance end-to-end: a daemon on a real
// UDP loopback socket serving a fleet of concurrent provers, each
// completing a SMART challenge/response round and an ERASMUS
// collection, with 5% datagram loss injected on BOTH sides so the
// retry/backoff machinery is load-bearing. Zero verification failures
// allowed; round-trip latency percentiles are reported.
func TestE2ELoopbackFleet(t *testing.T) {
	provers := 1000
	if testing.Short() {
		provers = 100
	}
	t.Run("Batched", func(t *testing.T) {
		image := GoldenImage(42, testMem, testBlock)
		lis, err := transport.Listen(transport.NetConfig{DropRate: 0.05, DropSeed: 11})
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		srv, err := Serve(lis, Config{Ref: image, BlockSize: testBlock})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		res, err := RunFleet(FleetConfig{
			Addr:      lis.Addr().String(),
			Provers:   provers,
			Image:     image,
			BlockSize: testBlock,
			Net:       transport.NetConfig{DropRate: 0.05, DropSeed: 12},
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.SMARTOK != provers || res.CollectOK != provers || res.SMARTFail+res.CollectFail != 0 {
			t.Fatalf("fleet failures: %+v (daemon counts %+v)", res, srv.Counts())
		}
		t.Logf("fleet %d provers: SMART p50=%v p99=%v max=%v", provers, res.P50, res.P99, res.Max)
		t.Logf("client net: %+v", res.Net)
		t.Logf("daemon net: %+v", lis.Stats())
		t.Logf("daemon batch: %+v", srv.BatchStats())
		if res.Net.Injected == 0 {
			t.Fatal("injected loss never fired; e2e did not exercise retries")
		}
		// Amortization sanity: the shared-nonce collection epochs must
		// have been computed once each, not once per prover.
		bs := srv.BatchStats()
		if bs.Computed >= bs.Reports {
			t.Fatalf("batch fast path never amortized: %+v", bs)
		}
		// With a thousand provers sharing one socket, some sends
		// must genuinely have coalesced into batch frames on at
		// least one side of the link.
		if res.Net.Coalesced == 0 && lis.Stats().Coalesced == 0 {
			t.Fatalf("never coalesced: cli %+v srv %+v", res.Net, lis.Stats())
		}
	})
}
