package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo fingerprints the machine a result came from. Times from
// different hosts compare only as ratios; the calibration loop gives
// the ratio's denominator.
type hostInfo struct {
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GOAMD64       string  `json:"goamd64"`
	GoVersion     string  `json:"go_version"`
	CalibrationMs float64 `json:"calibration_ms"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "n/a",
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	runs := make([]float64, 5)
	for i := range runs {
		runs[i] = calibrate()
	}
	h.CalibrationMs = median(runs)
	return h
}

// cpuModel reads the CPU model name the kernel reports ("unknown" where
// it does not).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }() // read-only close
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// calibrationSink keeps the calibration result observable so the
// compiler cannot drop the loop.
var calibrationSink float64

// calibrate times a fixed, allocation-free mix of integer and
// floating-point work (about 35 ms on a 2020s x86 server core) and returns its
// wall time in milliseconds.
func calibrate() float64 {
	t0 := now()
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc = acc*0.999999 + float64(x>>40)*1e-12
	}
	calibrationSink = acc
	return sinceMs(t0, now())
}
