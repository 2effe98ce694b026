package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// sleepUntil blocks the calling goroutine's thread until t with a raw
// nanosleep. time.Sleep on an idle Go process parks in the network poller,
// whose timeout has millisecond granularity, so an open-loop generator
// built on it would send sub-millisecond-spaced calls up to a millisecond
// late; the thread-blocking sleep keeps the schedule to the kernel's timer
// slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// cpuTime is the CPU time this process (client and service together) has
// used, user plus system, read from the scheduler's nanosecond clock.
// Unlike wall time it does not count time the host's hypervisor stole
// from the guest.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuTicks reads the machine-wide steal and total ticks from /proc/stat
// (0, 0 when unavailable).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
