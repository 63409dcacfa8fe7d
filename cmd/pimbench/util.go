package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pimgo/internal/adversary"
	"pimgo/internal/core"
	"pimgo/internal/rng"
)

// exitFn is indirected so the refusal-path regression test can assert the
// exit code without killing the test process.
var exitFn = os.Exit

// refuse prints a refusal to stderr and exits non-zero — the single choke
// point for every "not recording" path (oracle divergence, broken
// decomposition, unwritable results file), so a divergence can never exit
// 0 and slip past CI.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	exitFn(1)
}

// benchJSON is the on-disk shape shared by every results/BENCH_*.json file:
// a self-describing header plus an append-only list of labeled entries.
type benchJSON[E any] struct {
	Bench   string `json:"bench"`
	Unit    string `json:"unit"`
	Entries []E    `json:"entries"`
}

// mergeBenchEntry loads the bench-results file at path (a missing file
// starts a fresh one; a present-but-corrupt file is refused so a truncated
// write can never silently eat history), replaces the existing entry whose
// label matches labelOf(entry) or appends if none does, and writes the file
// back. It returns the final entry count and whether an entry was replaced.
// Existing entries are kept as raw JSON and only their label is decoded, so
// a recorded field that E no longer declares survives the rewrite.
func mergeBenchEntry[E any](path, bench, unit string, entry E, labelOf func(E) string) (n int, replaced bool, err error) {
	file := benchJSON[json.RawMessage]{Bench: bench, Unit: unit}
	if raw, rerr := os.ReadFile(path); rerr == nil {
		if jerr := json.Unmarshal(raw, &file); jerr != nil {
			return 0, false, fmt.Errorf("existing %s is not valid JSON (%v); refusing to overwrite", path, jerr)
		}
	}
	enc, err := json.Marshal(entry)
	if err != nil {
		return 0, false, err
	}
	label := labelOf(entry)
	for i, old := range file.Entries {
		var id struct {
			Label string `json:"label"`
		}
		if jerr := json.Unmarshal(old, &id); jerr != nil {
			return 0, false, fmt.Errorf("existing %s entry %d has no readable label (%v); refusing to overwrite", path, i, jerr)
		}
		if id.Label == label {
			file.Entries[i] = enc
			replaced = true
			break
		}
	}
	if !replaced {
		file.Entries = append(file.Entries, enc)
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return 0, false, err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return 0, false, err
	}
	return len(file.Entries), replaced, nil
}

// table is a simple aligned-column printer for experiment output.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// parseInts parses "4,8,16" into a slice.
func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			panic(fmt.Sprintf("bad int list %q: %v", s, err))
		}
		out = append(out, v)
	}
	return out
}

func lg(p int) int {
	l := 1
	for 1<<l < p {
		l++
	}
	return l
}

const keySpace = uint64(1) << 40

// buildMap constructs a map with n uniform keys on P modules.
func buildMap(p, n int, seed uint64, opts ...func(*core.Config)) *core.Map[uint64, int64] {
	cfg := core.Config{P: p, Seed: seed, TrackAccess: true}
	for _, o := range opts {
		o(&cfg)
	}
	m := core.New[uint64, int64](cfg, core.Uint64Hash)
	r := rng.NewXoshiro256(seed ^ 0xF111)
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = 1 + r.Uint64n(keySpace)
		vals[i] = int64(i)
	}
	m.Upsert(keys, vals)
	return m
}

// buildMapAnchored seeds the map with adversary.SparseAnchors so the
// same-successor workload has its reserved gap.
func buildMapAnchored(p, n int, seed uint64, opts ...func(*core.Config)) (*core.Map[uint64, int64], *adversary.Gen) {
	cfg := core.Config{P: p, Seed: seed, TrackAccess: true}
	for _, o := range opts {
		o(&cfg)
	}
	m := core.New[uint64, int64](cfg, core.Uint64Hash)
	g := adversary.NewGen(seed^0xAD, keySpace)
	anchors := g.SparseAnchors(n)
	m.Upsert(anchors, make([]int64, len(anchors)))
	return m, g
}
