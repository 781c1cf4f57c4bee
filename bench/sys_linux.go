package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockNs(id uintptr) int64 {
	var ts syscall.Timespec
	// clock_gettime on a CPU-time clock of the caller cannot fail.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// threadCPUNs is the calling thread's CPU time; meaningful only between
// runtime.LockOSThread and UnlockOSThread.
func threadCPUNs() int64 { return clockNs(clockThreadCPU) }

// processCPUNs is the process's user+sys CPU time over all threads.
func processCPUNs() int64 { return clockNs(clockProcessCPU) }

// onEachCPU calls f once on each of the first n CPUs the calling thread
// may run on, with the thread pinned there, and then gives the thread its
// CPUs back. The caller holds runtime.LockOSThread.
func onEachCPU(n int, f func()) error {
	var allowed, one [16]uint64 // 1024 CPUs
	size := unsafe.Sizeof(allowed)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	defer syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&allowed)))
	for cpu := 0; cpu < 64*len(allowed) && n > 0; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		one = [16]uint64{}
		one[cpu/64] = 1 << (cpu % 64)
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&one))); e != 0 {
			return fmt.Errorf("sched_setaffinity: %w", e)
		}
		f()
		n--
	}
	return nil
}

// peakRSSBytes reads VmHWM, the process's resident-set high-water mark.
func peakRSSBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) != 2 || string(f[1]) != "kB" {
				break
			}
			kb, err := strconv.ParseInt(string(f[0]), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
