//go:build !unix

package bench

import "time"

// epoch anchors processCPU's fallback clock.
var epoch = time.Now()

// processCPU falls back to wall time where the process CPU clock is not
// read: differences of it measure elapsed time.
func processCPU() time.Duration { return time.Since(epoch) }
