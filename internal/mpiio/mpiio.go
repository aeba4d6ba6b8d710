// Package mpiio implements the MPI-I/O interface of MPI-2 on top of the
// simulated parallel filesystem (internal/simfs), with communication
// costs charged through the MPI runtime (internal/mpi). It provides
// exactly the surface b_eff_io exercises: collective open/close, strided
// fileviews, individual and shared file pointers, noncollective and
// collective (two-phase) reads and writes, and Sync.
//
// The collective path implements real two-phase I/O in the style of
// ROMIO: ranks agree on the accessed file range, partition it into file
// domains owned by aggregator ranks, redistribute data over the message
// network, and let each aggregator access its domain as few merged
// extents as the data allows. This is the optimisation that makes the
// paper's scattering pattern type 0 the fastest for small disk chunks
// (Fig. 4), and its absence is why noncollective small-chunk patterns
// collapse.
package mpiio

import (
	"fmt"
	"sync"

	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/simfs"
)

// Access modes, combinable with bitwise or.
const (
	ModeRdOnly = 1 << iota
	ModeWrOnly
	ModeRdWr
	ModeCreate
	ModeDeleteOnClose
	ModeUniqueOpen // informational; see the paper's §5.4 discussion
)

// Info carries MPI-2 style hints for the collective machinery.
type Info struct {
	// Aggregators is the number of collective-buffering aggregator
	// ranks (the cb_nodes hint). Zero means one per I/O server, capped
	// at the communicator size.
	Aggregators int

	// CollBufferSize is each aggregator's two-phase buffer (the
	// cb_buffer_size hint). Aggregators access their file domain in
	// slices of at most this size. Zero means 4 MB.
	CollBufferSize int64

	// NoCollectiveBuffering disables two-phase aggregation: collective
	// calls degrade to independent accesses plus synchronisation. For
	// ablation studies.
	NoCollectiveBuffering bool

	// Metrics, when non-nil, counts the collective machinery's work.
	// It is excluded from JSON so hint structs keep their cache
	// fingerprints with or without observability attached.
	Metrics *Metrics `json:"-"`
}

// Metrics is the MPI-I/O layer's optional observability hook-up. All
// fields may be nil; counting never touches virtual time.
type Metrics struct {
	// CollectiveOps counts two-phase collective transfers (one per
	// rank per collective call).
	CollectiveOps *obs.Counter

	// ShuffleBytes counts the phase-one redistribution traffic: bytes
	// each rank ships to (or from) its aggregators over the message
	// network before the disks are touched.
	ShuffleBytes *obs.Counter
}

func (i Info) withDefaults(fs *simfs.FS, commSize int) Info {
	if i.Aggregators <= 0 {
		i.Aggregators = fs.Config().Servers
	}
	if i.Aggregators > commSize {
		i.Aggregators = commSize
	}
	if i.CollBufferSize <= 0 {
		i.CollBufferSize = 4 << 20
	}
	return i
}

// View is a strided fileview: starting at Disp, the file exposes
// blocks of BlockLen bytes every Stride bytes. BlockLen == Stride is a
// contiguous view. It is the filetype shape b_eff_io's scattering
// patterns need (MPI's general derived datatypes reduce to this for
// every pattern in the paper).
type View struct {
	Disp     int64
	BlockLen int64
	Stride   int64
}

// ContiguousView is the default view: the whole file, no scattering.
func ContiguousView(disp int64) View {
	return View{Disp: disp, BlockLen: 1, Stride: 1}
}

func (v View) validate() error {
	if v.BlockLen < 1 || v.Stride < v.BlockLen || v.Disp < 0 {
		return fmt.Errorf("mpiio: invalid view %+v", v)
	}
	return nil
}

// fileOffset maps a view-relative offset to an absolute file offset.
func (v View) fileOffset(off int64) int64 {
	return v.Disp + off/v.BlockLen*v.Stride + off%v.BlockLen
}

// extent is a contiguous byte range in the file.
type extent struct{ off, size int64 }

// extents expands [off, off+size) of the view into file extents,
// merging adjacent blocks when the view is contiguous.
func (v View) extents(off, size int64) []extent {
	if size <= 0 {
		return nil
	}
	if v.BlockLen == v.Stride {
		return []extent{{v.Disp + off, size}}
	}
	var out []extent
	for size > 0 {
		inBlock := v.BlockLen - off%v.BlockLen
		n := size
		if n > inBlock {
			n = inBlock
		}
		fo := v.fileOffset(off)
		if len(out) > 0 && out[len(out)-1].off+out[len(out)-1].size == fo {
			out[len(out)-1].size += n
		} else {
			out = append(out, extent{fo, n})
		}
		off += n
		size -= n
	}
	return out
}

// File is an open MPI-I/O file handle. Every rank of the opening
// communicator holds one; the shared state (file pointer, collective
// coordination) lives in a struct common to all ranks.
type File struct {
	comm *mpi.Comm
	fs   *simfs.FS
	sf   *simfs.File
	mode int
	info Info
	view View
	ptr  int64 // individual file pointer, view-relative

	// collSeq numbers this rank's collective calls; MPI's ordering rule
	// makes the numbers agree across ranks.
	collSeq int64

	sh *sharedState
}

type sharedState struct {
	name      string
	refs      int
	sharedPtr int64 // shared file pointer, view-relative (all ranks must use the same view, as MPI requires)
	coord     *coordination
}

// openRegistry keeps one sharedState per (fs,name) so that every rank's
// Open returns handles on common state. Keyed on the FS instance; an
// entry lives while some rank holds the file open, so the registry
// never keeps a closed file's FS alive. The mutex only guards against
// *different* engines running in parallel (e.g. parallel benchmarks);
// within one engine the sequential discipline already serialises.
var (
	openRegistryMu sync.Mutex
	openRegistry   = map[*simfs.FS]map[string]*sharedState{}
)

// Open opens name collectively on comm. Every rank must call it with
// identical arguments. The returned handles start with a contiguous
// view and zeroed file pointers.
func Open(c *mpi.Comm, fs *simfs.FS, name string, mode int, info Info) (*File, error) {
	if mode&(ModeRdOnly|ModeWrOnly|ModeRdWr) == 0 {
		return nil, fmt.Errorf("mpiio: open of %q needs an access mode", name)
	}
	if mode&ModeCreate == 0 && !fs.Exists(name) {
		// All ranks see the same fs state; fail consistently.
		return nil, fmt.Errorf("mpiio: open of %q without ModeCreate: no such file", name)
	}
	info = info.withDefaults(fs, c.Size())
	// Rank 0 performs the metadata operation; everyone synchronises.
	if c.Rank() == 0 {
		fs.Open(c.Proc(), name)
	}
	c.Barrier()
	openRegistryMu.Lock()
	reg := openRegistry[fs]
	if reg == nil {
		reg = map[string]*sharedState{}
		openRegistry[fs] = reg
	}
	sh := reg[name]
	if sh == nil {
		sh = &sharedState{name: name, coord: newCoordination()}
		reg[name] = sh
	}
	sh.refs++
	openRegistryMu.Unlock()
	// Each rank pays its own open syscall, as clients of a parallel
	// filesystem do.
	sf := fs.Open(c.Proc(), name)
	return &File{comm: c, fs: fs, sf: sf, mode: mode, info: info, view: ContiguousView(0), sh: sh}, nil
}

// Close closes the file collectively. With ModeDeleteOnClose the file
// is removed once every rank has closed.
func (f *File) Close() {
	f.comm.Barrier()
	f.sf.Close(f.comm.Proc())
	openRegistryMu.Lock()
	f.sh.refs--
	if f.sh.refs == 0 {
		reg := openRegistry[f.fs]
		delete(reg, f.sh.name)
		if len(reg) == 0 {
			delete(openRegistry, f.fs)
		}
	}
	openRegistryMu.Unlock()
	f.comm.Barrier() // every rank has released its reference
	if f.mode&ModeDeleteOnClose != 0 && f.sh.refs == 0 && f.comm.Rank() == 0 {
		f.fs.Delete(f.comm.Proc(), f.sh.name)
	}
	f.comm.Barrier() // nobody proceeds before the deletion is visible
}

// SetView installs a strided view and resets the individual and shared
// file pointers, like MPI_File_set_view (collective).
func (f *File) SetView(v View) error {
	if err := v.validate(); err != nil {
		return err
	}
	f.view = v
	f.ptr = 0
	f.sh.sharedPtr = 0
	return nil
}

// SeekSet positions the individual file pointer (view-relative).
func (f *File) SeekSet(off int64) { f.ptr = off }

// SeekShared positions the shared file pointer, like
// MPI_File_seek_shared: collective, and every rank must pass the same
// offset. The barriers fence it against surrounding ordered accesses.
func (f *File) SeekShared(off int64) {
	f.comm.Barrier()
	f.sh.sharedPtr = off
	f.comm.Barrier()
}

// TellShared reports the shared file pointer.
func (f *File) TellShared() int64 { return f.sh.sharedPtr }

// Tell reports the individual file pointer.
func (f *File) Tell() int64 { return f.ptr }

// Size reports the current file size in bytes.
func (f *File) Size() int64 { return f.sf.Size() }

// Sync forces written data toward disk, collectively. As §5.4 of the
// paper stresses, this guarantees consistency — and in this simulator,
// like in ROMIO over a real fs, it also waits out the write-behind
// queues.
func (f *File) Sync() {
	f.comm.Barrier()
	f.sf.Sync(f.comm.Proc())
	f.comm.Barrier()
}

func (f *File) checkWrite() {
	if f.mode&(ModeWrOnly|ModeRdWr) == 0 {
		f.comm.Proc().Fail("mpiio: write on read-only file %q", f.sh.name)
	}
}

func (f *File) checkRead() {
	if f.mode&(ModeRdOnly|ModeRdWr) == 0 {
		f.comm.Proc().Fail("mpiio: read on write-only file %q", f.sh.name)
	}
}

func (f *File) clientID() int { return f.comm.PhysProc(f.comm.Rank()) }

// ---------------------------------------------------------------------
// Noncollective operations

// WriteAt writes size bytes at the view-relative offset off without
// moving any pointer. data may be nil for timing-only traffic.
func (f *File) WriteAt(off, size int64, data []byte) {
	f.checkWrite()
	p := f.comm.Proc()
	var cursor int64
	for _, e := range f.view.extents(off, size) {
		f.sf.WriteAt(p, f.clientID(), e.off, e.size, nil)
		if data != nil && cursor < int64(len(data)) {
			end := cursor + e.size
			if end > int64(len(data)) {
				end = int64(len(data))
			}
			f.sf.StoreContent(e.off, data[cursor:end])
		}
		cursor += e.size
	}
}

// ReadAt reads size bytes at the view-relative offset off. The result
// carries payload bytes only where writes carried them.
func (f *File) ReadAt(off, size int64) []byte {
	f.checkRead()
	p := f.comm.Proc()
	exts := f.view.extents(off, size)
	out := make([]byte, 0, size)
	any := false
	for _, e := range exts {
		f.sf.ReadAt(p, f.clientID(), e.off, e.size)
		if c := f.sf.FetchContent(e.off, e.size); c != nil {
			out = append(out, c...)
			any = true
		} else {
			out = append(out, make([]byte, e.size)...)
		}
	}
	if !any {
		return nil
	}
	return out
}

// Write writes at the individual file pointer and advances it.
func (f *File) Write(size int64, data []byte) {
	f.WriteAt(f.ptr, size, data)
	f.ptr += size
}

// Read reads at the individual file pointer and advances it.
func (f *File) Read(size int64) []byte {
	out := f.ReadAt(f.ptr, size)
	f.ptr += size
	return out
}

// WriteShared writes at the shared file pointer (noncollective): the
// pointer advances atomically for the whole communicator, at the cost
// of a round trip to the shared-pointer service on rank 0's node.
func (f *File) WriteShared(size int64, data []byte) {
	f.checkWrite()
	off := f.fetchAddShared(size)
	f.WriteAt(off, size, data)
}

// ReadShared reads at the shared file pointer (noncollective).
func (f *File) ReadShared(size int64) []byte {
	f.checkRead()
	off := f.fetchAddShared(size)
	return f.ReadAt(off, size)
}

// fetchAddShared atomically advances the shared pointer, charging the
// control round trip.
func (f *File) fetchAddShared(size int64) int64 {
	p := f.comm.Proc()
	me := f.comm.PhysProc(f.comm.Rank())
	owner := f.comm.PhysProc(0)
	p.Sleep(2 * f.comm.World().Net().Latency(me, owner)) // request + response
	off := f.sh.sharedPtr
	f.sh.sharedPtr += size
	return off
}
