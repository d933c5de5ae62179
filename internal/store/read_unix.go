//go:build unix

package store

import (
	"io/fs"
	"syscall"
)

// readRecord reads the file at path into buf (open, read to EOF, close),
// returning the grown buffer. It calls the kernel directly because os.Open
// also offers every descriptor to the runtime poller, which for a regular
// file on Linux costs four fcntl calls and a refused epoll_ctl: more
// system calls than the read itself.
func readRecord(path string, buf []byte) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return buf, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR: // interrupted before reading; retry
		case err != nil:
			return buf, &fs.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}
