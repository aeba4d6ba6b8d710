package mpiio

import "github.com/hpcbench/beff/internal/simfs"

// Registered reports whether the open registry holds an entry for fs.
func Registered(fs *simfs.FS) bool {
	openRegistryMu.Lock()
	defer openRegistryMu.Unlock()
	_, ok := openRegistry[fs]
	return ok
}
