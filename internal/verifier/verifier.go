// Package verifier implements the trusted party Vrf: it challenges
// on-demand provers, collects ERASMUS self-measurement histories,
// monitors SeED report schedules, and validates every report against a
// golden memory image by recomputing the measurement with the shared
// key (MAC mode) or verifying the signature (hash-and-sign mode).
package verifier

import (
	"fmt"

	"saferatt/internal/core"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
	"saferatt/internal/transport"
)

// Result records one verification decision.
type Result struct {
	Prover string
	At     sim.Time // when Vrf decided
	OK     bool
	Reason string // non-empty when !OK
	Report *core.Report
	// Freshness is decision time minus the report's t_s: how stale the
	// attested state is (§3.3's freshness notion).
	Freshness sim.Duration
}

// Counts aggregates verification outcomes.
type Counts struct {
	Accepted int
	Rejected int
	Replays  int
	Missing  int // expected-but-absent reports (SeED watchdog)
}

// endpoint is the name a Verifier binds and sends under.
const endpoint = "verifier"

// Verifier is Vrf.
type Verifier struct {
	Kernel *sim.Kernel
	// tr carries the verifier's protocol messages both ways.
	tr transport.Transport
	// Scheme mirrors the prover's tagging scheme; in MAC mode Key is
	// the shared attestation key.
	Scheme suite.Scheme
	// PermKey derives shuffled traversal orders (the attestation key
	// in the MAC setting).
	PermKey []byte
	// Image is the golden memory image the prover should have. Assign
	// a new one to move the reference forward (an installed update).
	Image Image
	// Opts mirror the prover's mechanism configuration.
	Opts core.Options
	// Trace is optional.
	Trace *trace.Log
	// OnResult, if set, observes each result as it is recorded.
	OnResult func(Result)

	// The protocol state the shared rules (protocol.go) run over.
	pending  map[string]Challenge
	fresh    map[string]*Freshness
	seedMons map[string]*SeedMonitor
	results  []Result
	counts   Counts
	nonceCtr uint64
	// nonce is the self-derived-nonce scratch of the ERASMUS and SeED
	// checks (a Verifier handles one report at a time).
	nonce []byte
}

// Config assembles a Verifier.
type Config struct {
	Kernel    *sim.Kernel
	Transport transport.Transport
	Scheme    suite.Scheme
	PermKey   []byte
	Image     Image
	Opts      core.Options
	Trace     *trace.Log
}

// New builds a Verifier and binds it to the transport under its name.
func New(cfg Config) (*Verifier, error) {
	if cfg.Kernel == nil || cfg.Transport == nil {
		return nil, fmt.Errorf("verifier: Kernel and Transport are required")
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, fmt.Errorf("verifier: %w", err)
	}
	if cfg.Image.IsZero() {
		return nil, fmt.Errorf("verifier: empty reference image")
	}
	v := &Verifier{
		Kernel: cfg.Kernel, tr: cfg.Transport,
		Scheme: cfg.Scheme, PermKey: cfg.PermKey, Image: cfg.Image,
		Opts: cfg.Opts, Trace: cfg.Trace,
		pending: map[string]Challenge{},
		fresh:   map[string]*Freshness{},
	}
	if err := cfg.Transport.Bind(endpoint, v.onMsg); err != nil {
		return nil, fmt.Errorf("verifier: %w", err)
	}
	return v, nil
}

func (v *Verifier) onMsg(m transport.Msg) {
	switch m.Kind {
	case transport.KindReport:
		v.HandleReports(m.From, m.Reports)
	case transport.KindCollection:
		v.HandleCollection(m.From, m.Reports)
	case transport.KindSeedReport:
		v.HandleSeedReports(m.From, m.Reports)
	}
}

// send has datagram semantics: a request that cannot leave is a lost
// request, which shows as the missing response.
func (v *Verifier) send(to string, kind transport.Kind, nonce []byte) {
	_ = v.tr.Send(transport.Msg{From: endpoint, To: to, Kind: kind, Nonce: nonce})
}

// Challenge sends a fresh-nonce attestation request to a prover
// (step 1 of the §2.2 timeline) and returns the nonce.
func (v *Verifier) Challenge(prover string) []byte {
	v.nonceCtr++
	// A deterministic per-verifier nonce stream keeps experiments
	// reproducible while remaining unpredictable to the prover.
	nonce := ChallengeNonce(v.PermKey, labelChallenge, v.nonceCtr)
	v.pending[prover] = nonce
	v.Trace.AddCat(v.Kernel.Now(), trace.KindRequestSent, endpoint, "to ", prover)
	v.send(prover, transport.KindChallenge, nonce)
	return nonce
}

// Collect requests an ERASMUS prover's stored measurement history.
func (v *Verifier) Collect(prover string) {
	v.send(prover, transport.KindCollect, nil)
}

var labelChallenge = []byte("challenge")

// HandleReports validates a challenge response: every round's report
// must carry the outstanding nonce and a correct tag.
func (v *Verifier) HandleReports(prover string, reports []*core.Report) {
	v.Trace.AddCat(v.Kernel.Now(), trace.KindReportReceived, endpoint, "from ", prover)
	c := v.pending[prover]
	delete(v.pending, prover)
	if why := c.Open(len(reports)); why != ReasonOK {
		v.record(v.result(prover, nil, why, nil))
		return
	}
	for _, r := range reports {
		why := c.Check(r)
		var err error
		if why == ReasonOK {
			why, err = v.checkTag(r)
		}
		v.record(v.result(prover, r, why, err))
		if why != ReasonOK {
			return
		}
	}
	v.Trace.AddCat(v.Kernel.Now(), trace.KindReportVerified, endpoint, "from ", prover)
}

// result stamps a verdict with the decision time and, for a verdict
// about a report, the attested state's staleness.
func (v *Verifier) result(prover string, r *core.Report, why Reason, err error) Result {
	now := v.Kernel.Now()
	res := Result{Prover: prover, At: now, OK: why == ReasonOK, Reason: why.Text(err), Report: r}
	if r != nil {
		res.Freshness = now.Sub(r.TS)
	}
	return res
}

// freshnessOf returns the prover's replay state, creating it on first
// contact.
func (v *Verifier) freshnessOf(prover string) *Freshness {
	f := v.fresh[prover]
	if f == nil {
		f = &Freshness{}
		v.fresh[prover] = f
	}
	return f
}

// CheckTag recomputes the expected measurement over the golden image
// and compares tags (Image.VerifyTag under the verifier's scheme, key
// and options).
func (v *Verifier) CheckTag(r *core.Report) (bool, error) {
	return v.Image.VerifyTag(v.Scheme, v.PermKey, v.Opts, r)
}

func (v *Verifier) checkTag(r *core.Report) (Reason, error) {
	ok, err := v.CheckTag(r)
	return TagReason(ok, err), err
}

func (v *Verifier) record(res Result) {
	v.results = append(v.results, res)
	if res.OK {
		v.counts.Accepted++
	} else {
		v.counts.Rejected++
	}
	if v.OnResult != nil {
		v.OnResult(res)
	}
}

// Results returns all recorded verification results.
func (v *Verifier) Results() []Result { return v.results }

// Counts returns aggregate outcome counters.
func (v *Verifier) Counts() Counts { return v.counts }
