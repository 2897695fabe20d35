package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// daemonStats is what cmd/rattd prints about itself on exit: the
// outcome counters and transport counters of its stats line, and the
// persistence counters of its ckpt line when -checkpoint is set. The
// harness reads the daemon only through these lines (and the kernel's
// accounting of the process), never through code linked into it.
type daemonStats struct {
	Challenges, Accepted, Rejected, Replays, Enrolled uint64
	Balance                                           float64

	NetRx, NetDup, NetMalformed, NetQdrop uint64
	BatchesRx, BatchesTx, Coalesced       uint64

	HasCkpt                                   bool
	CkptFulls, CkptDeltas, CkptCompactions    uint64
	CkptSkips, CkptErrors                     uint64
	CkptLastWrite                             time.Duration
	CkptLastBytes, CkptLastDirty, CkptPending int64
}

const (
	statsMarker   = "rattd: challenges="
	ckptMarker    = "rattd: ckpt "
	servingMarker = " serving on "
)

// parseServing extracts the bound address from the daemon's
//
//	rattd: shard 0/1 serving on 127.0.0.1:41234 as "rattd" (image ...
//
// line — how the harness learns the port of a daemon started on :0.
func parseServing(line string) (addr string, ok bool) {
	i := strings.Index(line, servingMarker)
	if i < 0 || !strings.Contains(line[:i], "rattd: shard ") {
		return "", false
	}
	rest := line[i+len(servingMarker):]
	j := strings.Index(rest, " as ")
	if j <= 0 {
		return "", false
	}
	return rest[:j], true
}

// parseStatsLine folds one daemon log line into st. It reports whether
// the line was one of the two stats lines; a line that carries a
// marker but does not parse completely is an error, so a format change
// in cmd/rattd fails loudly instead of reading as zeros.
func parseStatsLine(line string, st *daemonStats) (bool, error) {
	if i := strings.Index(line, statsMarker); i >= 0 {
		kv, err := keyValues(line[i+len("rattd: "):])
		if err != nil {
			return true, err
		}
		// "batches rx=" and "net rx=" share the key "rx": the second
		// occurrence is the batch count, handled by keyValues' suffixing.
		want := []struct {
			key string
			dst *uint64
		}{
			{"challenges", &st.Challenges}, {"accepted", &st.Accepted}, {"rejected", &st.Rejected},
			{"replays", &st.Replays}, {"enrolled", &st.Enrolled},
			{"rx", &st.NetRx}, {"dup", &st.NetDup}, {"malformed", &st.NetMalformed}, {"qdrop", &st.NetQdrop},
			{"rx#2", &st.BatchesRx}, {"tx", &st.BatchesTx}, {"coalesced", &st.Coalesced},
		}
		for _, w := range want {
			s, ok := kv[w.key]
			if !ok {
				return true, fmt.Errorf("stats line lacks %q: %s", w.key, line)
			}
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return true, fmt.Errorf("stats line %s=%q: %v", w.key, s, err)
			}
			*w.dst = v
		}
		bal, ok := kv["balance"]
		if !ok {
			return true, fmt.Errorf("stats line lacks balance: %s", line)
		}
		b, err := strconv.ParseFloat(bal, 64)
		if err != nil {
			return true, fmt.Errorf("stats line balance=%q: %v", bal, err)
		}
		st.Balance = b
		return true, nil
	}
	if i := strings.Index(line, ckptMarker); i >= 0 {
		rest := line[i+len(ckptMarker):]
		kv, err := keyValues(rest)
		if err != nil {
			return true, err
		}
		want := []struct {
			key string
			dst *uint64
		}{
			{"full", &st.CkptFulls}, {"delta", &st.CkptDeltas}, {"compact", &st.CkptCompactions},
			{"skip", &st.CkptSkips}, {"err", &st.CkptErrors},
		}
		for _, w := range want {
			v, err := strconv.ParseUint(kv[w.key], 10, 64)
			if err != nil {
				return true, fmt.Errorf("ckpt line %s=%q: %v", w.key, kv[w.key], err)
			}
			*w.dst = v
		}
		for _, w := range []struct {
			key string
			dst *int64
		}{{"dirty", &st.CkptLastDirty}, {"pending-dirty", &st.CkptPending}} {
			v, err := strconv.ParseInt(kv[w.key], 10, 64)
			if err != nil {
				return true, fmt.Errorf("ckpt line %s=%q: %v", w.key, kv[w.key], err)
			}
			*w.dst = v
		}
		// "| last write 1.234ms 5120B dirty=..."
		j := strings.Index(rest, "last write ")
		if j < 0 {
			return true, fmt.Errorf("ckpt line lacks last write: %s", line)
		}
		f := strings.Fields(rest[j+len("last write "):])
		if len(f) < 2 || !strings.HasSuffix(f[1], "B") {
			return true, fmt.Errorf("ckpt line last write malformed: %s", line)
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return true, fmt.Errorf("ckpt line last write %q: %v", f[0], err)
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(f[1], "B"), 10, 64)
		if err != nil {
			return true, fmt.Errorf("ckpt line last bytes %q: %v", f[1], err)
		}
		st.CkptLastWrite, st.CkptLastBytes, st.HasCkpt = d, n, true
		return true, nil
	}
	return false, nil
}

// keyValues collects the key=value tokens of a log line. A key seen a
// second time is stored as key#2 (the stats line prints rx= twice).
func keyValues(s string) (map[string]string, error) {
	kv := map[string]string{}
	for _, tok := range strings.Fields(s) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			continue
		}
		if k == "" || v == "" {
			return nil, fmt.Errorf("malformed token %q", tok)
		}
		if _, dup := kv[k]; dup {
			k += "#2"
		}
		kv[k] = v
	}
	return kv, nil
}
