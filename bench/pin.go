package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU binds every thread of this process to the lowest-numbered
// CPU it may run on, for good; threads and processes started afterwards
// inherit the binding, so a recipesrv started later runs there too and
// sizes its GOMAXPROCS to it.
//
// A client with one request outstanding and its server are never busy at
// once. Left on two CPUs, the kernel wakes the peer now on the caller's
// CPU and now on the idle one, round trips fall into a 13 µs and a 19 µs
// mode, and a run's median lands on whichever mode more of its slices saw
// (README.md, "Loop model").
func pinToOneCPU() error {
	var allowed, one [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i, word := range allowed {
		if word != 0 {
			cpu = i*64 + bits.TrailingZeros64(word)
			break
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: no CPU allowed")
	}
	one[cpu/64] = 1 << (cpu % 64)
	// Twice: a thread cloned by a thread the first pass had not reached
	// yet is unbound; its parent is bound by the second pass at the latest.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}
