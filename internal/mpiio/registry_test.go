package mpiio_test

import (
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/workload"
)

// TestOpenRegistryEmptyAfterRuns: once every file is closed, the open
// registry drops its entries, so a long-lived process does not keep
// each simulated filesystem alive.
func TestOpenRegistryEmptyAfterRuns(t *testing.T) {
	p, err := machine.Lookup("cluster")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.Parse([]byte(`{"name": "registry", "phases": [
		{"name": "write", "pattern": {"op": "seq", "nodes": [
			{"op": "strided", "count": 2, "chunk": 16384},
			{"op": "shared", "count": 2, "chunk": 16384},
			{"op": "separate", "count": 2, "chunk": 16384},
			{"op": "segmented", "count": 2, "chunk": 16384, "collective": true}]}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(w mpi.WorldConfig, fs *simfs.FS) error
	}{
		{"beffio", func(w mpi.WorldConfig, fs *simfs.FS) error {
			_, err := beffio.Run(w, fs, beffio.Options{T: des.Second / 2})
			return err
		}},
		{"workload", func(w mpi.WorldConfig, fs *simfs.FS) error {
			_, err := workload.Run(w, fs, spec)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := p.BuildIOWorld(4)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := p.BuildFS()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(w, fs); err != nil {
				t.Fatal(err)
			}
			if mpiio.Registered(fs) {
				t.Fatal("open registry still holds the run's filesystem")
			}
		})
	}
}
