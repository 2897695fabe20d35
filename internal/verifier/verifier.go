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

// Counts aggregates verification outcomes: the tally and its sums.
type Counts struct {
	Accepted int
	Rejected int
	Replays  int
	Missing  int // expected-but-absent reports (SeED watchdog and gaps)
	Verdicts Tally
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

	// The protocol state the shared rules (protocol.go) run over. chal
	// is made on first use, so a world that never challenges pays nothing.
	chal     *Challenger
	fresh    map[string]*Freshness
	seedMons map[string]*SeedMonitor
	results  []Result
	tally    Tally
	// nonce and why are the scratch of Judge: the self-derived nonce of
	// the ERASMUS and SeED rules and the bundle's verdicts (a Verifier
	// handles one bundle at a time).
	nonce []byte
	why   []Reason
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
		fresh: map[string]*Freshness{},
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
	nonce := v.challenger().Issue(prover)
	v.Trace.AddCat(v.Kernel.Now(), trace.KindRequestSent, endpoint, "to ", prover)
	v.send(prover, transport.KindChallenge, nonce)
	return nonce
}

// Collect requests an ERASMUS prover's stored measurement history.
func (v *Verifier) Collect(prover string) {
	v.send(prover, transport.KindCollect, nil)
}

var labelChallenge = []byte("challenge")

// challenger returns the verifier's Challenger. Its key is
// PRF(PermKey, "challenge", 0), so runs stay reproducible while nonces
// stay unpredictable to the prover.
func (v *Verifier) challenger() *Challenger {
	if v.chal == nil {
		v.chal = NewChallenger(core.AppendPRF(nil, v.PermKey, labelChallenge, 0), labelChallenge)
	}
	return v.chal
}

// HandleReports validates a challenge response: the first report's
// nonce must be a challenge this verifier issued to prover and has not
// redeemed yet, and every round's report must carry it and a correct tag.
func (v *Verifier) HandleReports(prover string, reports []*core.Report) {
	v.Trace.AddCat(v.Kernel.Now(), trace.KindReportReceived, endpoint, "from ", prover)
	var c Challenge
	if len(reports) > 0 {
		c = reports[0].Nonce
	}
	if why := v.challenger().Open(prover, len(reports), c); why != ReasonOK {
		v.record(prover, nil, why)
		return
	}
	why, first := v.judge(SMART, nil, reports, func(uint64) []byte { return c }, CollectionPolicy{})
	for i, w := range why {
		v.record(prover, reports[i], w)
	}
	if first == ReasonOK {
		v.Trace.AddCat(v.Kernel.Now(), trace.KindReportVerified, endpoint, "from ", prover)
	}
}

// judge runs the core's transition over one bundle against the
// verifier's golden image, into its scratch.
func (v *Verifier) judge(p Protocol, f *Freshness, reports []*core.Report, nonce func(uint64) []byte, pol CollectionPolicy) ([]Reason, Reason) {
	why, first, _ := Judge(v.why[:0], p, f, reports, nonce, pol, func(i int) (bool, error) { return v.CheckTag(reports[i]) })
	v.why = why
	return why, first
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

// record stamps a verdict with the decision time and, for a verdict
// about a report, the attested state's staleness, and counts it.
func (v *Verifier) record(prover string, r *core.Report, why Reason) {
	now := v.Kernel.Now()
	res := Result{Prover: prover, At: now, OK: why == ReasonOK, Reason: why.String(), Report: r}
	if r != nil {
		res.Freshness = now.Sub(r.TS)
		if why == ReasonError {
			// Judge keeps a bundle's first error only; a malformed report
			// fails the tag check the same way twice.
			_, err := v.CheckTag(r)
			res.Reason = why.Text(err)
		}
	}
	v.results = append(v.results, res)
	v.tally.Add(why, 1)
}

// Results returns all recorded verification results.
func (v *Verifier) Results() []Result { return v.results }

// Counts returns aggregate outcome counters. A SeED report is missing
// when its watchdog expires or a later report skips its counter.
func (v *Verifier) Counts() Counts {
	t := &v.tally
	return Counts{Accepted: int(t.Accepted()), Rejected: int(t.Rejected()), Replays: int(t.Replays()),
		Missing: int(t[ReasonSeedMissing] + t[ReasonSeedGap]), Verdicts: *t}
}
