package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// refs holds a workload's reference digests: one per item of its input
// pool (a cell, a tiering round, a report, a query), keyed by the item's
// inputs. Any --seed draws its inputs from the pool, so every output of
// every run has a reference to be checked against.
type refs struct {
	digests map[string]string
}

type refFile struct {
	Workload string            `json:"workload"`
	Regen    string            `json:"regen"`
	Digests  map[string]string `json:"digests"`
}

// perfbench runs in the benchmark's directory: references are read from
// ref/ and everything a run leaves behind goes to outDir.
const outDir = "out"

func refPath(workload string) string {
	return filepath.Join("ref", workload+".json")
}

func loadRefs(workload string) (*refs, error) {
	data, err := os.ReadFile(refPath(workload))
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	var f refFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reference digests %s: %w", refPath(workload), err)
	}
	if len(f.Digests) == 0 {
		return nil, fmt.Errorf("reference digests %s: empty", refPath(workload))
	}
	return &refs{digests: f.Digests}, nil
}

func writeRefs(workload string, digests map[string]string) (string, error) {
	path := refPath(workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(refFile{
		Workload: workload,
		Regen:    fmt.Sprintf("bash perfbench/run.sh --workload %s --regen", workload),
		Digests:  digests,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// check reports whether digest is the reference for key. A key with no
// reference fails: an unchecked output is not a correct one.
func (r *refs) check(key, digest string) bool {
	want, ok := r.digests[key]
	if !ok {
		fmt.Fprintf(os.Stderr, "no reference digest for %s\n", key)
		return false
	}
	if want != digest {
		fmt.Fprintf(os.Stderr, "output mismatch for %s: digest %s, reference %s\n", key, digest, want)
		return false
	}
	return true
}

// digest is a short content hash of an output.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// digestValues hashes the %+v rendering of values; fmt prints maps in
// key order and floats in their shortest exact form, so equal values give
// equal digests.
func digestValues(values ...any) string {
	var sb strings.Builder
	for _, v := range values {
		fmt.Fprintf(&sb, "%+v\n", v)
	}
	return digest([]byte(sb.String()))
}
