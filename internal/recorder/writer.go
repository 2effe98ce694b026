package recorder

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy names when the writer fsyncs the recording file.
const (
	// SyncNone fsyncs only on Close and explicit Sync calls (fastest;
	// a crash may lose buffered records — the torn-tail reader recovers
	// the durable prefix).
	SyncNone = "none"
	// SyncInterval fsyncs on a timer (Options.SyncInterval).
	SyncInterval = "interval"
	// SyncAlways fsyncs after every record (durable, slowest).
	SyncAlways = "always"
)

// DefaultSyncInterval is the SyncInterval timer period unless
// Options.SyncInterval overrides it.
const DefaultSyncInterval = time.Second

// DefaultBuffer is the pending-batch capacity unless Options.Buffer
// overrides it.
const DefaultBuffer = 1024

// batchLinger bounds how long an appended record may wait in a partial
// batch before the drain goroutine picks it up on its own.
const batchLinger = 5 * time.Millisecond

// Options configures a Writer.
type Options struct {
	// Dir is the directory recording files are created in (required;
	// created if missing).
	Dir string
	// Mode selects the encoding: ModeBinary (default) or ModeNDJSON.
	Mode string
	// Sync selects the fsync policy: SyncNone (default), SyncInterval or
	// SyncAlways.
	Sync string
	// SyncInterval is the SyncInterval timer period (default
	// DefaultSyncInterval).
	SyncInterval time.Duration
	// RotateBytes starts a new file once the current one reaches this
	// size (0 disables size rotation).
	RotateBytes int64
	// RotateAge starts a new file once the current one is this old
	// (0 disables age rotation).
	RotateAge time.Duration
	// Buffer is how many appended-but-unwritten messages the pending
	// batch holds (default DefaultBuffer).
	Buffer int
	// DropOnFull sheds records when the pending batch is full instead of
	// blocking the serving path; drops are counted in Stats. The default
	// (false) blocks, trading latency for completeness.
	DropOnFull bool
	// Source names the writing process in each file's header.
	Source string
}

// Stats is a point-in-time writer readout, feeding the dc_recorder_*
// gauges.
type Stats struct {
	Records   int64  `json:"records"` // records durably handed to the encoder
	Bytes     int64  `json:"bytes"`   // bytes written across all files
	Fsyncs    int64  `json:"fsyncs"`
	Dropped   int64  `json:"dropped"` // records shed on backpressure or after close
	Rotations int64  `json:"rotations"`
	Files     int64  `json:"files"`
	Mode      string `json:"mode"`
}

// wop discriminates wmsg.
type wop uint8

const (
	opRecord      wop = iota // encode rec
	opCloseStream            // retire stream id from the rotation table
	opFlush                  // flush buffered bytes to the OS
	opSync                   // flush + fsync
	opClose                  // flush, fsync, close the file, exit
)

// wmsg is one message to the drain goroutine. Records travel by value,
// so appending one allocates nothing.
type wmsg struct {
	op    wop
	rec   Record     // opRecord
	id    uint32     // opCloseStream
	reply chan error // opFlush, opSync, opClose
}

// Writer is the asynchronous flight-recorder sink. Append copies the
// record into a mutex-guarded pending batch; a single drain goroutine
// owns the file and swaps the whole batch out at once — when it is half
// full, on an explicit Flush/Sync/Close, or after batchLinger — so the
// serving path pays one short critical section per decision and the
// goroutine handoff is amortized over the batch. Every message (records,
// stream opens and closes, flushes) goes through the same batch, so the
// drain sees them in call order. OpenStream and Append may be called
// from any goroutine; Close must not race Append (callers stop serving
// before closing, as cmd/dcserved does).
type Writer struct {
	opts   Options
	closed atomic.Bool
	done   chan struct{}

	// pending is the batch being filled, guarded by bmu; space wakes
	// appenders blocked on a full batch, wake the drain goroutine.
	bmu     sync.Mutex
	pending []wmsg
	space   *sync.Cond
	wake    chan struct{}
	wakeAt  int // pending length that wakes the drain early
	exited  bool

	nextStream atomic.Uint32

	// streams and order are owned by the drain goroutine: the table
	// mutates exactly when the corresponding open/close message is
	// processed, so rotation re-emission stays ordered with the records
	// around it.
	streams map[uint32]StreamInfo // live streams, for rotation re-emission
	order   []uint32              // stream open order, for deterministic re-emission

	mu    sync.Mutex
	files []string

	records   atomic.Int64
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	dropped   atomic.Int64
	rotations atomic.Int64

	errMu sync.Mutex
	err   error // first write error, reported by Close
}

// NewWriter opens a recording writer: creates Dir, starts the first
// file, and launches the drain goroutine.
func NewWriter(opts Options) (*Writer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("recorder: Options.Dir is required")
	}
	if opts.Mode == "" {
		opts.Mode = ModeBinary
	}
	if !ValidMode(opts.Mode) {
		return nil, fmt.Errorf("recorder: unknown mode %q (binary|ndjson)", opts.Mode)
	}
	switch opts.Sync {
	case "":
		opts.Sync = SyncNone
	case SyncNone, SyncInterval, SyncAlways:
	default:
		return nil, fmt.Errorf("recorder: unknown sync policy %q (none|interval|always)", opts.Sync)
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.Buffer <= 0 {
		opts.Buffer = DefaultBuffer
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("recorder: creating %s: %w", opts.Dir, err)
	}
	w := &Writer{
		opts:    opts,
		done:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
		wakeAt:  (opts.Buffer + 1) / 2,
		streams: map[uint32]StreamInfo{},
	}
	w.space = sync.NewCond(&w.bmu)
	f, err := w.openFile(1)
	if err != nil {
		return nil, err
	}
	go w.drain(f)
	return w, nil
}

// Mode returns the writer's encoding.
func (w *Writer) Mode() string { return w.opts.Mode }

// Dir returns the recording directory.
func (w *Writer) Dir() string { return w.opts.Dir }

// Closed reports whether Close has been called.
func (w *Writer) Closed() bool { return w.closed.Load() }

// Stats snapshots the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	files := int64(len(w.files))
	w.mu.Unlock()
	return Stats{
		Records:   w.records.Load(),
		Bytes:     w.bytes.Load(),
		Fsyncs:    w.fsyncs.Load(),
		Dropped:   w.dropped.Load(),
		Rotations: w.rotations.Load(),
		Files:     files,
		Mode:      w.opts.Mode,
	}
}

// Files returns the recording file paths created so far, oldest first.
func (w *Writer) Files() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.files...)
}

// OpenStream declares a new stream (one engine incarnation) and returns
// its id. The open record is always enqueued blocking — opens are rare
// and losing one would orphan every serve record of the stream. The
// drain registers the stream for rotation re-emission when it processes
// the record, keeping the table ordered with the surrounding records.
func (w *Writer) OpenStream(info StreamInfo) uint32 {
	id := w.nextStream.Add(1)
	info.Resumed = false
	if w.closed.Load() {
		w.dropped.Add(1)
		return id
	}
	w.enqueue(wmsg{op: opRecord, rec: Record{Kind: KindOpen, Stream: id, Info: &info}}, false)
	return id
}

// CloseStream retires a stream: later rotations stop re-emitting its
// open record. Serve records already enqueued are unaffected — the
// retirement is processed by the drain in order, after them.
func (w *Writer) CloseStream(id uint32) {
	if w.closed.Load() {
		return
	}
	w.enqueue(wmsg{op: opCloseStream, id: id}, false)
}

// errAppendFull and errWriterClosed are Append's shed reasons.
var (
	errAppendFull   = fmt.Errorf("recorder: append buffer full, record dropped")
	errWriterClosed = fmt.Errorf("recorder: writer is closed")
)

// Append enqueues one serve record without allocating. Under DropOnFull
// a full batch sheds the record (counted in Stats.Dropped) instead of
// blocking; a closed writer always sheds.
func (w *Writer) Append(rec Record) error {
	if w.closed.Load() {
		w.dropped.Add(1)
		return errWriterClosed
	}
	return w.enqueue(wmsg{op: opRecord, rec: rec}, w.opts.DropOnFull)
}

// enqueue adds msg to the pending batch. Records and stream
// declarations wait for room (or, with shed set, are dropped and
// counted); a Flush/Sync/Close, which waits for its reply, always fits
// and wakes the drain at once.
func (w *Writer) enqueue(msg wmsg, shed bool) error {
	urgent := msg.reply != nil
	w.bmu.Lock()
	for !urgent && len(w.pending) >= w.opts.Buffer && !w.exited {
		if shed {
			w.bmu.Unlock()
			w.dropped.Add(1)
			return errAppendFull
		}
		w.signal()
		w.space.Wait()
	}
	if w.exited {
		w.bmu.Unlock()
		w.dropped.Add(1)
		return errWriterClosed
	}
	w.pending = append(w.pending, msg)
	if urgent || len(w.pending) >= w.wakeAt {
		w.signal()
	}
	w.bmu.Unlock()
	return nil
}

// signal wakes the drain goroutine if it is not already due to wake.
func (w *Writer) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// control enqueues a flush/sync/close request and waits for its reply.
func (w *Writer) control(op wop) error {
	ch := make(chan error, 1)
	if err := w.enqueue(wmsg{op: op, reply: ch}, false); err != nil {
		return err
	}
	return <-ch
}

// Flush blocks until every record enqueued before the call is handed to
// the operating system (buffered bytes flushed, no fsync).
func (w *Writer) Flush() error {
	if w.closed.Load() {
		return errWriterClosed
	}
	return w.control(opFlush)
}

// Sync flushes and fsyncs the current file.
func (w *Writer) Sync() error {
	if w.closed.Load() {
		return errWriterClosed
	}
	return w.control(opSync)
}

// Close flushes, fsyncs and closes the recording, then stops the drain
// goroutine. Appends arriving after Close are shed and counted. Close
// is idempotent; it returns the first write error the drain hit, if any.
func (w *Writer) Close() error {
	if w.closed.Swap(true) {
		<-w.done
		return w.firstErr()
	}
	err := w.control(opClose)
	<-w.done
	if ferr := w.firstErr(); ferr != nil {
		return ferr
	}
	return err
}

func (w *Writer) setErr(err error) {
	if err == nil {
		return
	}
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
}

func (w *Writer) firstErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// countingFile counts encoded bytes into the writer's totals and the
// current file's size.
type countingFile struct {
	f    *os.File
	w    *Writer
	size int64
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.size += int64(n)
	c.w.bytes.Add(int64(n))
	return n, err
}

// openState is the drain goroutine's current file.
type openState struct {
	cf       *countingFile
	enc      *Encoder
	seq      int
	openedAt time.Time
}

// openFile starts recording file seq: creates it, writes the header and
// registers the path.
func (w *Writer) openFile(seq int) (*openState, error) {
	ext := "wal"
	if w.opts.Mode == ModeNDJSON {
		ext = "ndjson"
	}
	path := filepath.Join(w.opts.Dir, fmt.Sprintf("dcrec-%06d.%s", seq, ext))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("recorder: creating %s: %w", path, err)
	}
	cf := &countingFile{f: f, w: w}
	enc, err := NewEncoder(cf, w.opts.Mode, w.opts.Source)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.mu.Lock()
	w.files = append(w.files, path)
	w.mu.Unlock()
	return &openState{cf: cf, enc: enc, seq: seq, openedAt: time.Now()}, nil
}

// take swaps the pending batch out for the drained one (cleared for
// reuse) and releases appenders waiting for room.
func (w *Writer) take(drained []wmsg) []wmsg {
	clear(drained)
	w.bmu.Lock()
	batch := w.pending
	w.pending = drained[:0]
	w.bmu.Unlock()
	w.space.Broadcast()
	return batch
}

// drain is the single goroutine that owns the recording file.
func (w *Writer) drain(st *openState) {
	defer close(w.done)
	var tick <-chan time.Time
	if w.opts.Sync == SyncInterval {
		ticker := time.NewTicker(w.opts.SyncInterval)
		tick = ticker.C
		defer ticker.Stop()
	}
	linger := time.NewTicker(batchLinger)
	defer linger.Stop()
	flushSync := func() error {
		if err := st.enc.Flush(); err != nil {
			return err
		}
		if err := st.cf.f.Sync(); err != nil {
			return err
		}
		w.fsyncs.Add(1)
		return nil
	}
	var batch []wmsg
	for {
		select {
		case <-w.wake:
		case <-linger.C:
		case <-tick:
			if err := flushSync(); err != nil {
				w.setErr(err)
			}
			continue
		}
		batch = w.take(batch)
		for i := range batch {
			msg := &batch[i]
			switch msg.op {
			case opRecord:
				if err := st.enc.Encode(&msg.rec); err != nil {
					w.setErr(err)
					w.dropped.Add(1)
					continue
				}
				w.records.Add(1)
				if msg.rec.Kind == KindOpen {
					w.streams[msg.rec.Stream] = *msg.rec.Info
					w.order = append(w.order, msg.rec.Stream)
				}
				if w.opts.Sync == SyncAlways {
					if err := flushSync(); err != nil {
						w.setErr(err)
					}
				}
				if w.shouldRotate(st) {
					next, err := w.rotate(st)
					if err != nil {
						w.setErr(err)
						continue // keep writing the old file rather than lose records
					}
					st = next
				}
			case opCloseStream:
				if _, ok := w.streams[msg.id]; ok {
					delete(w.streams, msg.id)
					for k, sid := range w.order {
						if sid == msg.id {
							w.order = append(w.order[:k], w.order[k+1:]...)
							break
						}
					}
				}
			case opFlush:
				msg.reply <- st.enc.Flush()
			case opSync:
				msg.reply <- flushSync()
			case opClose:
				err := flushSync()
				if cerr := st.cf.f.Close(); err == nil {
					err = cerr
				}
				w.exit(batch[i+1:])
				msg.reply <- err
				return
			}
		}
	}
}

// exit marks the drain gone, sheds whatever was enqueued behind the
// close (only possible when Close races an append) and releases every
// waiting appender.
func (w *Writer) exit(rest []wmsg) {
	w.bmu.Lock()
	w.exited = true
	rest = append(rest, w.pending...)
	w.pending = nil
	w.bmu.Unlock()
	w.space.Broadcast()
	for _, msg := range rest {
		if msg.op == opRecord {
			w.dropped.Add(1)
		}
		if msg.reply != nil {
			msg.reply <- errWriterClosed
		}
	}
}

func (w *Writer) shouldRotate(st *openState) bool {
	// Logical file size: bytes already on disk plus bytes still sitting
	// in the encoder's buffer.
	if w.opts.RotateBytes > 0 && st.cf.size+int64(st.enc.Buffered()) >= w.opts.RotateBytes {
		return true
	}
	if w.opts.RotateAge > 0 && time.Since(st.openedAt) >= w.opts.RotateAge {
		return true
	}
	return false
}

// rotate finishes the current file and starts the next, re-emitting
// every live stream's open record (marked Resumed) so the new file is
// self-contained.
func (w *Writer) rotate(st *openState) (*openState, error) {
	if err := st.enc.Flush(); err != nil {
		return nil, err
	}
	if err := st.cf.f.Sync(); err != nil {
		return nil, err
	}
	w.fsyncs.Add(1)
	if err := st.cf.f.Close(); err != nil {
		return nil, err
	}
	next, err := w.openFile(st.seq + 1)
	if err != nil {
		return nil, err
	}
	w.rotations.Add(1)
	// Runs on the drain goroutine, which owns the stream table.
	for _, id := range w.order {
		info := w.streams[id]
		info.Resumed = true
		rec := Record{Kind: KindOpen, Stream: id, Info: &info}
		if err := next.enc.Encode(&rec); err != nil {
			w.setErr(err)
			break
		}
	}
	return next, nil
}
