package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"saferatt/internal/suite"
)

// CSV exports for the plot-worthy series, so the figures can be
// redrawn with any plotting tool: each writer emits one header row and
// one record per data point.

// writeCSV emits header and then record(i) for each of n data points.
// A csv.Writer keeps its first write error, so the one check after
// Flush covers every row.
func writeCSV(w io.Writer, header []string, n int, record func(i int) []string) error {
	cw := csv.NewWriter(w)
	_ = cw.Write(header)
	for i := 0; i < n; i++ {
		_ = cw.Write(record(i))
	}
	cw.Flush()
	return cw.Error()
}

// Fig2CSV writes the Figure 2 timing series (seconds per algorithm per
// size).
func Fig2CSV(w io.Writer, points []Fig2Point) error {
	header := []string{"bytes"}
	for _, h := range suite.HashIDs() {
		header = append(header, string(h))
	}
	for _, s := range suite.SignerIDs() {
		header = append(header, "SHA-256+"+string(s))
	}
	return writeCSV(w, header, len(points), func(i int) []string {
		pt := points[i]
		rec := []string{strconv.Itoa(pt.Size)}
		for _, h := range suite.HashIDs() {
			rec = append(rec, fmt.Sprintf("%.9f", pt.HashTimes[h].Seconds()))
		}
		for _, s := range suite.SignerIDs() {
			rec = append(rec, fmt.Sprintf("%.9f", pt.SigTimes[s].Seconds()))
		}
		return rec
	})
}

// E6CSV writes the SMARM escape-probability sweep.
func E6CSV(w io.Writer, rows []E6Row) error {
	return writeCSV(w, []string{"blocks", "rounds", "trials", "simulated", "analytic"}, len(rows), func(i int) []string {
		r := rows[i]
		return []string{
			strconv.Itoa(r.Blocks), strconv.Itoa(r.Rounds), strconv.Itoa(r.Trials),
			fmt.Sprintf("%.6f", r.MCRate), fmt.Sprintf("%.6f", r.Analytic),
		}
	})
}

// E7CSV writes the Figure 5 QoA sweep.
func E7CSV(w io.Writer, rows []E7Row) error {
	return writeCSV(w, []string{"tm_seconds", "dwell_seconds", "trials", "simulated", "analytic"}, len(rows), func(i int) []string {
		r := rows[i]
		return []string{
			fmt.Sprintf("%.3f", r.TM.Seconds()), fmt.Sprintf("%.3f", r.Dwell.Seconds()),
			strconv.Itoa(r.Trials),
			fmt.Sprintf("%.6f", r.MCRate), fmt.Sprintf("%.6f", r.Analytic),
		}
	})
}

// E5CSV writes the fire-alarm latency sweep.
func E5CSV(w io.Writer, rows []E5Row) error {
	header := []string{"mechanism", "bytes", "mp_seconds", "alarm_latency_seconds", "deadline_met", "source"}
	return writeCSV(w, header, len(rows), func(i int) []string {
		r := rows[i]
		src := "simulated"
		if r.Analytic {
			src = "analytic"
		}
		return []string{
			string(r.Mechanism), strconv.Itoa(r.MemBytes),
			fmt.Sprintf("%.6f", r.MeasureTime.Seconds()),
			fmt.Sprintf("%.6f", r.AlarmLatency.Seconds()),
			strconv.FormatBool(r.DeadlineMet), src,
		}
	})
}
