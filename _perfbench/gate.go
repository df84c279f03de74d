package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"nnwc/internal/core"
	"nnwc/internal/experiments"
	"nnwc/internal/obs"
	"nnwc/internal/threetier"
	"nnwc/internal/workload"
)

// paperSeed is the default experiment seed (cmd/experiments -seed).
const paperSeed = 2006

// The quick campaign's outputs at paperSeed, pinned so that a change to
// the simulator, the trainer or CV that alters results fails the
// benchmark before anything is timed.
const (
	pinQuickDatasetSHA = "f45709a74e9ca63917aaa1da9429af9b65c4b1c976a645a932f5c5156b8f1841"
	pinTable2SHA       = "28ae4c7b96cee0244d7602fc7853fd0af0022fbab62549ea2bd683bf7dac4b38"
)

// quickContext is the `cmd/experiments -quick` context for seed, writing
// artifacts under outDir and fanning out on workers goroutines.
func quickContext(outDir string, seed uint64, workers int) *experiments.Context {
	c := experiments.NewQuick(io.Discard, outDir)
	c.Seed = seed
	c.Workers = workers
	return c
}

// collectQuick collects the quick campaign's dataset for seed.
func collectQuick(seed uint64) (*workload.Dataset, error) {
	c := experiments.NewQuick(io.Discard, "")
	return threetier.Collect(c.Sweep, c.Sys, seed)
}

func datasetSHA(ds *workload.Dataset) (string, error) {
	var b bytes.Buffer
	if err := ds.WriteCSV(&b); err != nil {
		return "", err
	}
	return obs.HashBytes(b.Bytes()), nil
}

// gateResult carries what the gate computed that the workloads reuse.
type gateResult struct {
	Quick      *workload.Dataset // the quick dataset for the run's seed
	CVAccuracy float64           // its Table 2 overall accuracy
}

// gate is the correctness check that runs before any timing. It fails
// when the pinned quick-campaign outputs at paperSeed differ, or when CV
// on the run seed's quick dataset differs between 1 and nproc workers.
func gate(e *env) (gateResult, error) {
	dir, err := os.MkdirTemp(e.tmp, "gate")
	if err != nil {
		return gateResult{}, err
	}
	defer os.RemoveAll(dir)

	c := quickContext(dir, paperSeed, e.nproc)
	ds, err := c.Dataset()
	if err != nil {
		return gateResult{}, err
	}
	sha, err := datasetSHA(ds)
	if err != nil {
		return gateResult{}, err
	}
	if sha != pinQuickDatasetSHA {
		return gateResult{}, fmt.Errorf("gate: quick dataset at seed %d has sha256 %s, pinned %s", paperSeed, sha, pinQuickDatasetSHA)
	}
	if err := c.RunTable2(); err != nil {
		return gateResult{}, err
	}
	sha, err = obs.HashFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		return gateResult{}, err
	}
	if sha != pinTable2SHA {
		return gateResult{}, fmt.Errorf("gate: table2.csv at seed %d has sha256 %s, pinned %s", paperSeed, sha, pinTable2SHA)
	}

	if e.seed != paperSeed {
		if ds, err = collectQuick(e.seed); err != nil {
			return gateResult{}, err
		}
	}
	cfg := c.Model
	serial, err := core.CrossValidateWorkers(ds, cfg, c.Folds, e.seed+1, 1)
	if err != nil {
		return gateResult{}, err
	}
	parallel, err := core.CrossValidateWorkers(ds, cfg, c.Folds, e.seed+1, e.nproc)
	if err != nil {
		return gateResult{}, err
	}
	if !sameBits(serial.Averages, parallel.Averages) {
		return gateResult{}, fmt.Errorf("gate: CV averages differ between 1 and %d workers: %v vs %v",
			e.nproc, serial.Averages, parallel.Averages)
	}
	return gateResult{Quick: ds, CVAccuracy: parallel.OverallAccuracy()}, nil
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
