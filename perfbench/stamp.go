package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies the host and configuration a result was measured
// on. Two results are comparable only when their host and
// configuration fields agree; source and seed say what was measured.
type stamp struct {
	NProc            int       `json:"nproc"`
	GenGOMAXPROCS    int       `json:"gen_gomaxprocs"`
	DaemonGOMAXPROCS int       `json:"daemon_gomaxprocs"`
	GoVersion        string    `json:"go_version"`
	CPUModel         string    `json:"cpu_model"`
	Kernel           string    `json:"kernel"`
	Workload         string    `json:"workload"`
	Trace            bool      `json:"trace"`
	Seconds          int       `json:"seconds"`
	RefRate          float64   `json:"ref_rate_sps"`
	Ladder           []float64 `json:"ladder_sps"`
	AcceptLimitMS    float64   `json:"accept_limit_ms"`
	DaemonFlags      []string  `json:"daemon_flags"`
	// Source is a digest of the checkout's Go sources and go.mod files
	// (the checkout need not be a git repository).
	Source string `json:"source"`
	Seed   int64  `json:"seed"`
}

// comparable lists the fields that must agree for two results to be
// compared; Source and Seed are what a comparison varies.
func (s stamp) comparable() map[string]string {
	j := func(v any) string { b, _ := json.Marshal(v); return string(b) }
	return map[string]string{
		"nproc":             strconv.Itoa(s.NProc),
		"gen_gomaxprocs":    strconv.Itoa(s.GenGOMAXPROCS),
		"daemon_gomaxprocs": strconv.Itoa(s.DaemonGOMAXPROCS),
		"go_version":        s.GoVersion,
		"cpu_model":         s.CPUModel,
		"kernel":            s.Kernel,
		"workload":          s.Workload,
		"trace":             strconv.FormatBool(s.Trace),
		"seconds":           strconv.Itoa(s.Seconds),
		"ref_rate_sps":      j(s.RefRate),
		"ladder_sps":        j(s.Ladder),
		"accept_limit_ms":   j(s.AcceptLimitMS),
		"daemon_flags":      j(s.DaemonFlags),
	}
}

// stampDiff lists the comparable fields on which a and b differ.
func stampDiff(a, b stamp) []string {
	ca, cb := a.comparable(), b.comparable()
	var out []string
	for k, v := range ca {
		if cb[k] != v {
			out = append(out, fmt.Sprintf("%s: %s vs %s", k, v, cb[k]))
		}
	}
	sort.Strings(out)
	return out
}

var portRE = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// hostStamp fills the host fields. Daemon flags have their ephemeral
// ports masked, so they compare across runs.
func hostStamp(w *workload, root string, seed int64, seconds int, trace bool, flags []string) stamp {
	s := stamp{
		NProc:            runtime.NumCPU(),
		GenGOMAXPROCS:    runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: daemonGOMAXPROCS(),
		GoVersion:        runtime.Version(),
		CPUModel:         cpuModel(),
		Kernel:           readTrim("/proc/sys/kernel/osrelease"),
		Workload:         w.name,
		Trace:            trace,
		Seconds:          seconds,
		RefRate:          w.refRate,
		Ladder:           w.ladder,
		AcceptLimitMS:    acceptLimitMS,
		Source:           sourceDigest(root),
		Seed:             seed,
	}
	for _, f := range flags {
		s.DaemonFlags = append(s.DaemonFlags, portRE.ReplaceAllString(f, "127.0.0.1:*"))
	}
	return s
}

// daemonGOMAXPROCS is what a daemon started from this process runs
// with: it inherits the environment and CPU affinity.
func daemonGOMAXPROCS() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return runtime.NumCPU()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// dot-directories (build output).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is what a run saves: its stamp and every metric it printed.
type record struct {
	Stamp   stamp              `json:"stamp"`
	Correct bool               `json:"correct"`
	Metrics map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func saveRecord(path string, r *record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareRecords prints each metric of b against a, flagging first
// any host or configuration difference between their stamps.
func compareRecords(w io.Writer, a, b *record) {
	if diff := stampDiff(a.Stamp, b.Stamp); len(diff) > 0 {
		fmt.Fprintln(w, "WARNING: stamps differ; these results are not comparable:")
		for _, d := range diff {
			fmt.Fprintln(w, "  "+d)
		}
	} else {
		fmt.Fprintln(w, "stamps match on host and configuration")
	}
	fmt.Fprintf(w, "source %s -> %s, seed %d -> %d\n", a.Stamp.Source, b.Stamp.Source, a.Stamp.Seed, b.Stamp.Seed)
	names := make([]string, 0, len(b.Metrics))
	for k := range b.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		mb := b.Metrics[k]
		ma, ok := a.Metrics[k]
		if !ok {
			fmt.Fprintf(w, "  %-28s %14.4f %-9s (new)\n", k, mb.Value, mb.Unit)
			continue
		}
		ratio := mb.Value / ma.Value
		fmt.Fprintf(w, "  %-28s %14.4f -> %14.4f %-9s x%.3f\n", k, ma.Value, mb.Value, mb.Unit, ratio)
	}
}
