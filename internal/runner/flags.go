package runner

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// Flags bundles the standard sweep CLI knobs so every command spells
// them the same way: -j (workers), -cache (directory), -no-cache.
type Flags struct {
	J       int
	Dir     string
	NoCache bool
}

// Register installs the flags on fs (usually flag.CommandLine).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.J, "j", runtime.GOMAXPROCS(0), "parallel workers for independent simulation cells")
	fs.StringVar(&f.Dir, "cache", DefaultCacheDir, "result cache directory")
	fs.BoolVar(&f.NoCache, "no-cache", false, "recompute everything, ignore and do not write the cache")
}

// Options resolves the flags into sweep Options with progress on
// stderr. A cache that cannot be opened degrades to an uncached run
// with a warning — it never aborts the sweep — and a cache another
// process holds the lock on runs read-only, also with a warning.
func (f *Flags) Options(label string) Options {
	opt := Options{Workers: f.J, Progress: os.Stderr, Label: label}
	if !f.NoCache {
		c, err := OpenCache(f.Dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: cache disabled: %v\n", label, err)
		} else {
			if c.ReadOnly() {
				fmt.Fprintf(os.Stderr, "%s: cache read-only: another process holds the lock on %s; new results are not saved\n", label, c.Dir())
			}
			opt.Cache = c
		}
	}
	return opt
}
