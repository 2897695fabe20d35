package saferatt

// The options rule (DESIGN §15): every exported, non-embedded field of a
// …Config/…Options struct under internal/ is written by a non-test file —
// keyed composite literal, assignment, or address-of for a flag binding —
// or is allow-listed below. Assigning to the enclosing function's own
// parameter or receiver inside the declaring package is defaulting, not a
// caller. Out of scope: core.Options (the paper's mechanism space, Table
// 1's columns, not a setting of this code), the saferatt facade (roots, as
// in reach_test.go), other types' fields, function parameters, CLI flags.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// A field no program sets may stay for reach_test.go's faultSeam (loss, tiny caps, short timeouts) or for:
const (
	scaleSeam  = "scale seam" // a test runs the same code smaller through it
	deployment = "deployment" // a name, key or log sink an embedding may supply
)

var optionsAllowed = [...]struct{ name, reason, why string }{
	{"experiments.E5Config.Parallelism", scaleSeam, "the determinism suite runs the sweep at 1, 4 and 8 workers; figures sets parallel.SetDefault"},
	{"experiments.E7Config.Parallelism", scaleSeam, "as E5Config.Parallelism"},
	{"experiments.E8Config.Parallelism", scaleSeam, "as E5Config.Parallelism"},
	{"experiments.E9Config.Parallelism", scaleSeam, "as E5Config.Parallelism"},
	{"experiments.E10Config.Parallelism", scaleSeam, "as E5Config.Parallelism"},
	{"experiments.E7Config.Dwells", scaleSeam, "one to three dwell points instead of the figure's twelve"},
	{"experiments.E8Config.LossRates", scaleSeam, "two loss rates instead of four"},
	{"experiments.E8Config.Horizon", scaleSeam, "40–60 s of schedule instead of 120 s"},
	{"experiments.E8Config.Seed", scaleSeam, "a reduced grid is pinned at the seed its thresholds were read at"},
	{"experiments.E9Config.Overheads", scaleSeam, "one redirection overhead instead of two"},
	{"experiments.E9Config.Jitters", scaleSeam, "one or two jitter points instead of four"},
	{"experiments.E9Config.Iterations", scaleSeam, "a 10^5-iteration checksum in the determinism suite"},
	{"experiments.E9Config.Seed", scaleSeam, "as E8Config.Seed"},
	{"experiments.E10Config.FloodPeriods", scaleSeam, "one or two flood rates instead of three"},
	{"experiments.E10Config.Horizon", scaleSeam, "20–30 s of flood instead of 60 s"},
	{"experiments.E10Config.MemSize", scaleSeam, "a 1 MiB device instead of 8 MiB in the determinism suite"},
	{"experiments.E10Config.Seed", scaleSeam, "as E8Config.Seed"},
	{"experiments.Table1Config.SMARMRounds", scaleSeam, "13 rounds put SMARM's escape rate under what 10 trials resolve"},
	{"experiments.E15Config.Workers", scaleSeam, "four ingest workers even on a 1-CPU host"},
	{"experiments.E16Config.Workers", scaleSeam, "as E15Config.Workers"},
	{"experiments.E17Config.Workers", scaleSeam, "as E15Config.Workers"},
	{"experiments.E15Config.SeedEvery", scaleSeam, "a 2,000-prover fleet still sends hundreds of SeED reports"},
	{"experiments.E15Config.ReplayEvery", scaleSeam, "and tens of replays"},
	{"experiments.E17Config.ReplayEvery", scaleSeam, "as E15Config.ReplayEvery"},
	{"experiments.E17Config.GhostEvery", scaleSeam, "and tens of unknown-image probes"},
	{"experiments.E16Config.CheckpointEvery", scaleSeam, "20 ms ticks, so a 2,000-prover round spans several checkpoints"},
	{"experiments.E16Config.MinDeltaSpeedup", scaleSeam, "a 20-prover delta beats a 2,000-prover full by 3x, not 10x"},
	{"swarm.ShardedConfig.Opts", faultSeam, "an invalid mechanism (three rounds, no shuffle), to see NewSharded refuse it"},
	{"mem.Config.LogLimit", faultSeam, "a three-entry write log, to watch it drop its oldest entries"},
	{"rattd.CheckpointerConfig.MaxDeltaFrac", faultSeam, "disarms size-triggered compaction so the delta-count paths run on tiny fleets"},
	{"rattd.Config.PendingCap", faultSeam, "a four-entry challenge table, so a hello flood evicts"},
	{"rattd.Config.Key", deployment, "the daemon's credential: a deployment provisions its own in place of the public DefaultKey"},
	{"rattd.TierConfig.Window", faultSeam, "a three-counter lease, so shards exhaust and renew leases within a test"},
	{"safety.Config.CheckDur", faultSeam, "a 5–10 µs sensor pass, so several land inside one lock window"},
	{"transport.NetConfig.DropSeed", faultSeam, "makes injected datagram loss replayable"},
	{"transport.NetConfig.RetryBase", faultSeam, "millisecond retransmits under injected loss"},
	{"transport.NetConfig.RetryCap", faultSeam, "as RetryBase"},
	{"transport.NetConfig.RequestTimeout", faultSeam, "a request that expires, and a dedup horizon that passes, within a test"},
}
var _ [50 - len(optionsAllowed)]struct{} // the allow-list holds at most 50 entries

// unsetOptions returns how many fields of tr the rule audits and, one
// message each, the ones nothing sets (sorted) and the stale allowed names.
func unsetOptions(t *testing.T, tr *tree) (audited int, failed []string) {
	fields := map[string]types.Object{} // pkg.Type.Field -> audited field
	for id, o := range tr.info.Defs {
		tn, _ := o.(*types.TypeName)
		if tn == nil || tn.IsAlias() || tn.Parent() != tn.Pkg().Scope() || !strings.HasPrefix(tn.Pkg().Path(), "saferatt/internal/") {
			continue
		}
		name := tn.Pkg().Name() + "." + id.Name
		st, _ := tn.Type().Underlying().(*types.Struct)
		inScope := st != nil && name != "core.Options" && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options"))
		for i := 0; inScope && i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() {
				fields[name+"."+f.Name()] = f
			}
		}
	}
	set := map[types.Object]bool{} // what a non-test file writes
	for path, files := range tr.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				var lo, hi token.Pos // where the enclosing function declares its receiver and parameters
				if fn, ok := decl.(*ast.FuncDecl); ok {
					lo, hi = fn.Pos(), fn.Type.Params.End()
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						id, _ := n.Key.(*ast.Ident)
						set[tr.info.Uses[id]] = true
					case *ast.UnaryExpr:
						if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
							set[tr.info.Uses[sel.Sel]] = true
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								base, _ := sel.X.(*ast.Ident)
								f, own := tr.info.Uses[sel.Sel], tr.info.Uses[base]
								if own == nil || own.Pos() < lo || own.Pos() >= hi || f.Pkg().Path() != path {
									set[f] = true
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	for _, a := range optionsAllowed {
		if a.reason != scaleSeam && a.reason != faultSeam && a.reason != deployment {
			t.Errorf("allow-list entry %s: reason %q is not one of the three", a.name, a.reason)
		}
		if f := fields[a.name]; f == nil || set[f] {
			failed = append(failed, "allow-list entry "+a.name+" is gone, or a program sets it: remove the entry")
		}
		set[fields[a.name]] = true
	}
	for name, f := range fields {
		if !set[f] {
			failed = append(failed, name+": nothing sets it (make it a constant, or allow-list it with a reason)")
		}
	}
	sort.Strings(failed)
	return len(fields), failed
}

func TestOptions(t *testing.T) {
	audited, failed := unsetOptions(t, loadTree(t, nil))
	t.Logf("%d fields audited, %d of them allow-listed", audited, len(optionsAllowed))
	for _, msg := range failed {
		t.Error(msg)
	}
	t.Run("NotVacuous", func(t *testing.T) {
		_, failed := unsetOptions(t, loadTree(t, map[string]string{"saferatt/internal/qoa": "package qoa\ntype XConfig struct{ Unset int }\n"}))
		if len(failed) != 1 || !strings.HasPrefix(failed[0], "qoa.XConfig.Unset: ") {
			t.Fatalf("an XConfig with an unset field added to internal/qoa: reported %v", failed)
		}
	})
}
