//go:build unix

package bench

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time, user plus system, the process has used
// so far, or 0 if the kernel refuses to say.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
