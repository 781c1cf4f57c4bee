//go:build !linux

package main

import (
	"fmt"
	"time"
)

// The benchmark's CPU and memory metrics need Linux clocks and /proc; on
// other systems the package still builds, and running it reports that.

var processStart = time.Now()

func threadCPUNs() int64  { return int64(time.Since(processStart)) }
func processCPUNs() int64 { return int64(time.Since(processStart)) }

func onEachCPU(n int, f func()) error {
	for ; n > 0; n-- {
		f()
	}
	return nil
}

func peakRSSBytes() (int64, error) {
	return 0, fmt.Errorf("peak RSS needs /proc/self/status (linux)")
}
