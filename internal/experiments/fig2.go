package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/costmodel"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// Fig2Point is one x-position of Figure 2: the measurement time for
// each hash line and each hash+signature line at a given input size.
type Fig2Point struct {
	Size      int
	HashTimes map[suite.HashID]sim.Duration
	// SigTimes are full hash-and-sign times using SHA-256 as the
	// underlying hash (the paper's "standard hash-and-sign method").
	SigTimes map[suite.SignerID]sim.Duration
}

// Fig2Sizes is the default size sweep: 1 KB to 2 GB, decade-ish steps
// like the figure's log axis.
func Fig2Sizes() []int {
	return []int{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
		1 << 30, 2 << 30,
	}
}

// Fig2Series computes the cost-model timing series for the figure's
// algorithm set on the given profile.
func Fig2Series(p *costmodel.Profile, sizes []int) []Fig2Point {
	if p == nil {
		p = costmodel.ODROIDXU4()
	}
	if sizes == nil {
		sizes = Fig2Sizes()
	}
	out := make([]Fig2Point, 0, len(sizes))
	for _, n := range sizes {
		pt := Fig2Point{
			Size:      n,
			HashTimes: map[suite.HashID]sim.Duration{},
			SigTimes:  map[suite.SignerID]sim.Duration{},
		}
		for _, h := range suite.HashIDs() {
			pt.HashTimes[h] = p.HashTime(h, n)
		}
		for _, s := range suite.SignerIDs() {
			pt.SigTimes[s] = p.HashTime(suite.SHA256, n) + p.SignTime(s)
		}
		out = append(out, pt)
	}
	return out
}

// RenderFig2 formats the series as the figure's data table.
func RenderFig2(points []Fig2Point, p *costmodel.Profile) string {
	if p == nil {
		p = costmodel.ODROIDXU4()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: measurement timings, %s profile (seconds)\n", p.Name)
	fmt.Fprintf(&b, "%-10s", "size")
	for _, h := range suite.HashIDs() {
		fmt.Fprintf(&b, " %12s", h)
	}
	for _, s := range suite.SignerIDs() {
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%-10s", byteSize(pt.Size))
		for _, h := range suite.HashIDs() {
			fmt.Fprintf(&b, " %12.6f", pt.HashTimes[h].Seconds())
		}
		for _, s := range suite.SignerIDs() {
			fmt.Fprintf(&b, " %12.6f", pt.SigTimes[s].Seconds())
		}
		b.WriteByte('\n')
	}
	b.WriteString("crossover sizes (hashing overtakes signing, SHA-256 base):\n")
	for _, s := range suite.SignerIDs() {
		fmt.Fprintf(&b, "  %-12s %s\n", s, byteSize(p.CrossoverBytes(suite.SHA256, s)))
	}
	return b.String()
}

func byteSize(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
