package saferatt

// The reachability rule (DESIGN §14): every package-level function,
// named type and method declared in non-test internal/ code is reachable
// from a main package (cmd/, examples/, bench/) or an exported name of
// this facade, or sits on the allow-list below for one of three reasons.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// The three reasons a name only tests reach may stay.
const (
	reference = "reference"  // an implementation a test compares another against
	faultSeam = "fault seam" // lets a test crash or corrupt on purpose
	testState = "state"      // internal state a test must inspect
)

// reachAllowed lists what only tests reach and why it stays. What an
// entry alone uses stays with it.
var reachAllowed = [...]struct{ name, reason, why string }{
	{"blake2.SumB", reference, "one-shot form the RFC 7693 self-test and the incremental-equals-one-shot property compare against"},
	{"blake2.SumS", reference, "as SumB, for BLAKE2s"},
	{"core.DeriveOrder", reference, "whole-memory traversal order: tests recompute what a report should have measured"},
	{"core.ExpectedStreamForReport", reference, "uncached expected stream: tests verify engine tags without the verifier's caches"},
	{"core.SetStreamingDefault", reference, "switch of the bothPaths equivalence suites: whole experiments rerun on the streaming path"},
	{"rattd.Checkpoint.EncodeTo", reference, "encoder of a materialized Checkpoint: fuzz and round-trip tests re-encode what the decoder returned"},
	{"transport.DecodeFrame", reference, "owning decode (DecodeFrameInto + Frame.Msg): the form the codec round-trip and fuzz tests compare in"},
	{"mem.Memory.Restore", faultSeam, "out-of-band rewrite that bypasses locks: the stale-digest regressions need a mutation that is not a Write"},
	{"rattd.Tier.Restart", faultSeam, "kills and rebinds one shard mid-epoch (TestShardRestartMidEpoch)"},
	{"device.Device.InterruptsDisabled", testState, "whether an atomic section is open while a service or measurement runs"},
	{"device.Task.Suspended", testState, "TyTAN suspends the measured process: tests look mid-measurement"},
	{"inccache.ImageCache.Stats", testState, "hit/miss/seeded counters: a cache's effect is invisible in its results"},
	{"inccache.MemCache.Stats", testState, "as ImageCache.Stats, per device"},
	{"mem.Memory.LockedCount", testState, "lock-policy tests count locked blocks during and after a measurement"},
	{"rattd.Server.ImageFallbacks", testState, "restored bindings remapped to the default image, the only trace that fault leaves"},
	{"sim.Event.Pending", testState, "queue membership, compared event by event with the container/heap oracle"},
	{"sim.Timer.Pending", testState, "as Event.Pending, for a reusable timer"},
	{"verifier.DedupWindow.Counters", testState, "the exactly-tracked counters of a replay window"},
	{"verifier.NonceMemo.Counters", testState, "which challenge counters the memo holds after eviction"},
}

var _ [60 - len(reachAllowed)]struct{} // the allow-list holds at most 60 entries

// unreachable returns, as pkg.Func, pkg.Type or pkg.Type.Method, the
// internal/ declarations of tr (tree_test.go) no program or allowed name
// reaches (sorted) and the stale allowed names.
func unreachable(t *testing.T, tr *tree) (dead, stale []string) {
	info := tr.info
	ifaceNames := map[string]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	// The standard interfaces a reached type may implement with no call anywhere.
	for _, ref := range []string{"fmt.Stringer", "hash.Hash", "sort.Interface", "flag.Value", "io.*"} {
		path, name, _ := strings.Cut(ref, ".")
		pkg, err := std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && (name == "*" || name == n) {
				addIface(tn.Type())
			}
		}
	}

	uses := map[types.Object][]types.Object{} // declaration -> what its source mentions
	byName := map[string]types.Object{}       // internal/ functions, types and methods
	var roots []types.Object
	trim := strings.NewReplacer("saferatt/internal/", "", "(", "", "*", "", ")", "")
	for path, files := range tr.files {
		// declare files the objects one declaration defines and draws an
		// edge from each to every object its source mentions.
		declare := func(node ast.Node, idents ...*ast.Ident) {
			for _, id := range idents {
				o := info.Defs[id]
				if o == nil {
					continue // defines no object
				}
				fn, isFunc := o.(*types.Func)
				_, isType := o.(*types.TypeName)
				switch internal := strings.HasPrefix(path, "saferatt/internal/"); {
				case o.Pkg().Name() == "main", path == "saferatt" && o.Exported(), isFunc && o.Name() == "init":
					roots = append(roots, o)
				case internal && isFunc:
					byName[trim.Replace(fn.FullName())] = o
				case internal && isType:
					byName[o.Pkg().Name()+"."+o.Name()] = o
				}
				ast.Inspect(node, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if f, ok := info.Uses[n].(*types.Func); ok {
							uses[o] = append(uses[o], f.Origin()) // a generic receiver's method
						} else if u := info.Uses[n]; u != nil {
							uses[o] = append(uses[o], u)
						}
					case *ast.InterfaceType:
						addIface(info.TypeOf(n))
					}
					return true
				})
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool { // package-level declarations only
				switch n := n.(type) {
				case *ast.FuncDecl:
					declare(n, n.Name)
				case *ast.TypeSpec:
					declare(n, n.Name)
				case *ast.ValueSpec:
					declare(n, n.Names...)
				default:
					return true
				}
				return false
			})
		}
	}

	seen := map[types.Object]bool{}
	walk := func(work ...types.Object) {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[o] {
				continue
			}
			seen[o] = true
			work = append(work, uses[o]...)
			// A reached type's method is reached when an interface names it.
			if named, ok := o.Type().(*types.Named); ok && o == named.Obj() {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); ifaceNames[m.Name()] {
						work = append(work, m)
					}
				}
			}
		}
	}
	walk(roots...)
	var kept []types.Object
	for _, a := range reachAllowed {
		if a.reason != reference && a.reason != faultSeam && a.reason != testState {
			t.Errorf("allow-list entry %s: reason %q is not one of the three", a.name, a.reason)
		}
		if o := byName[a.name]; o == nil || seen[o] {
			stale = append(stale, a.name)
		} else {
			kept = append(kept, o)
		}
	}
	walk(kept...) // what only an allowed name uses stays with it
	for name, o := range byName {
		if !seen[o] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, stale
}

func TestReachable(t *testing.T) {
	dead, stale := unreachable(t, loadTree(t, nil))
	for _, name := range dead {
		t.Errorf("%s: no program reaches it (delete it, or allow-list it with a reason)", name)
	}
	for _, name := range stale {
		t.Errorf("allow-list entry %s is gone, or a program reaches it: remove the entry", name)
	}

	t.Run("NotVacuous", func(t *testing.T) {
		dead, _ := unreachable(t, loadTree(t, map[string]string{"saferatt/internal/qoa": "package qoa\nfunc reachInjected() {}\n"}))
		if len(dead) != 1 || dead[0] != "qoa.reachInjected" {
			t.Fatalf("an unreferenced function added to internal/qoa: reported %v", dead)
		}
	})
}
