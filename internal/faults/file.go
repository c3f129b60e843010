package faults

import "os"

// File is the errfs wrapper: an *os.File whose operations pass through
// named failpoints first. A wrapped file named "log" checks log_read,
// log_write, log_sync, log_truncate and log_close; the store wraps its
// log file so chaos tests can fail, delay, tear or crash any disk
// operation without touching the production code path (which, with a
// nil Set, pays one nil check per op).
type File struct {
	f    *os.File
	set  *Set
	name string
}

// WrapFile wraps f so every operation checks the failpoint named
// "<name>_<op>" on set first.
func WrapFile(f *os.File, set *Set, name string) *File {
	return &File{f: f, set: set, name: name}
}

// Unwrap returns the underlying *os.File (locking needs the real fd).
func (w *File) Unwrap() *os.File { return w.f }

func (w *File) ReadAt(p []byte, off int64) (int, error) {
	if err := w.set.Check(w.name + "_read"); err != nil {
		return 0, err
	}
	return w.f.ReadAt(p, off)
}

// writeCheck handles the write-point actions, including torn writes:
// when the armed rule is ActTorn, half the buffer lands on disk and
// then the wrapper panics with a Crash — the disk state of a power
// loss mid-append.
func (w *File) writeCheck(p []byte, write func([]byte) (int, error)) (int, error) {
	r := w.set.trigger(w.name + "_write")
	if r == nil {
		return write(p)
	}
	switch r.Action {
	case ActError:
		return 0, &os.PathError{Op: "write", Path: w.f.Name(), Err: ErrInjected}
	case ActCrash:
		panic(Crash{Point: w.name + "_write"})
	case ActSleep:
		r.sleep()
		return write(p)
	case ActTorn:
		write(p[:len(p)/2])
		panic(Crash{Point: w.name + "_write"})
	}
	return write(p)
}

func (w *File) WriteAt(p []byte, off int64) (int, error) {
	return w.writeCheck(p, func(b []byte) (int, error) { return w.f.WriteAt(b, off) })
}

func (w *File) Write(p []byte) (int, error) {
	return w.writeCheck(p, w.f.Write)
}

func (w *File) Sync() error {
	if err := w.set.Check(w.name + "_sync"); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *File) Truncate(size int64) (err error) {
	if err := w.set.Check(w.name + "_truncate"); err != nil {
		return err
	}
	return w.f.Truncate(size)
}

func (w *File) Stat() (os.FileInfo, error) { return w.f.Stat() }

func (w *File) Close() error {
	if err := w.set.Check(w.name + "_close"); err != nil {
		return err
	}
	return w.f.Close()
}
