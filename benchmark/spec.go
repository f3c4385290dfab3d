package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the program reads: the names and units
// of the metrics it must report.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end or no per_layer metrics", path)
	}
	return &s, nil
}

// layerScopes names the per-layer metrics measured on one workload only, by
// prefix. Every other per-layer metric is measured on every workload.
var layerScopes = []struct{ prefix, workload string }{
	{"regimap.ms.", "suite"}, {"ems.ms.", "suite"}, {"regimap.quality", "suite"}, {"ems.quality", "suite"},
	{"exact.", "exact"}, {"sat.", "exact"},
	{"server.", "daemon"}, {"http.", "daemon"}, {"engine.ms", "daemon"}, {"memo.", "daemon"},
	{"jobs.", "daemon"}, {"wal.", "daemon"}, {"client.", "daemon"},
}

// layerScope returns the one workload that measures a per-layer metric, or
// "" when every workload does.
func layerScope(name string) string {
	for _, s := range layerScopes {
		if strings.HasPrefix(name, s.prefix) {
			return s.workload
		}
	}
	return ""
}

// render returns exactly the named metrics with their units. A per-layer
// metric of a layer another workload measures is reported as 0: this
// workload does not run that layer. Any other named metric the run did not
// produce, or one that is not a finite number, fails the run: a partial
// result is never printed.
func (s *spec) render(names []specMetric, values map[string]float64, workload string, perLayer bool) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	var missing []string
	for _, m := range names {
		v, ok := values[m.Name]
		if scope := layerScope(m.Name); perLayer && !ok && scope != "" && scope != workload {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics missing from this run: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// checkRecord compares rec with the record the first run of this binary on
// this workload left in outDir, writing it when there is none. The record is
// keyed by a hash of the running executable, so it belongs to exactly one
// build of the program and the benchmark.
func checkRecord(outDir, name string, trace int, rec record) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("determinism record: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, fmt.Errorf("determinism record: %w", err)
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("determinism record: hash %s: %w", exe, err)
	}
	dir := filepath.Join(outDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("determinism record: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-trace%d-%s.json", name, trace, hex.EncodeToString(h.Sum(nil))[:16]))
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		blob, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return nil, err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, blob, 0o644); err != nil {
			return nil, fmt.Errorf("determinism record: %w", err)
		}
		return nil, os.Rename(tmp, path)
	case err != nil:
		return nil, fmt.Errorf("determinism record: %w", err)
	}
	var want record
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("determinism record %s: %w", path, err)
	}
	return diffRecords(want, rec), nil
}
