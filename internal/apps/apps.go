// Package apps is the benchmark suite: MiniC sensor-network kernels of the
// shapes TinyOS applications are built from — periodic sense-and-send,
// hysteresis event detection, sliding-window aggregation, FIR filtering,
// packet CRC, duty-cycle scheduling, and histogram quantization. Each app
// names its profiled handler procedure (the one whose branch probabilities
// the estimators recover) and a default input workload regime.
package apps

import (
	"fmt"
	"strconv"
	"strings"
)

// App is one benchmark program.
type App struct {
	// Name is the benchmark's identifier in tables.
	Name string
	// Description is a one-line summary.
	Description string
	// Handler is the procedure profiled and optimized.
	Handler string
	// Workload is the default input regime (see workload.Named).
	Workload string
	// template is MiniC source with @ITERS@ standing for the main-loop
	// iteration count.
	template string
}

// Source instantiates the program for the given number of handler
// invocations. iters must fit a 16-bit signed loop counter.
func (a App) Source(iters int) (string, error) {
	if iters <= 0 || iters > 30000 {
		return "", fmt.Errorf("apps: iters %d out of range [1, 30000]", iters)
	}
	return strings.ReplaceAll(a.template, "@ITERS@", strconv.Itoa(iters)), nil
}

// All returns the benchmark suite in table order.
func All() []App {
	return []App{blink, senseApp, eventdetect, aggregate, fir, crc, duty, quantize}
}

// ByName returns the named app.
func ByName(name string) (App, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

var blink = App{
	Name:        "blink",
	Description: "timer-driven LED toggle (deterministic sanity kernel)",
	Handler:     "tick",
	Workload:    "gaussian",
	template: `
var on int;

func tick() int {
	if (on == 0) {
		on = 1;
	} else {
		on = 0;
	}
	led(on);
	return on;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		acc = acc + tick();
	}
	debug(acc);
}
`,
}

var senseApp = App{
	Name:        "sense",
	Description: "periodic sample, threshold, and report",
	Handler:     "sample",
	Workload:    "gaussian",
	template: `
var threshold int = 520;
var sent int;

func sample() int {
	var v int;
	v = sense();
	if (v > threshold) {
		send(v);
		sent = sent + 1;
		return 1;
	}
	if (v < 64) {
		led(1);
	}
	return 0;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		acc = acc + sample();
	}
	debug(acc);
	debug(sent);
}
`,
}

var eventdetect = App{
	Name:        "eventdetect",
	Description: "hysteresis event detector with debounce",
	Handler:     "detect",
	Workload:    "bursty",
	template: `
var state int;
var count int;
var events int;

func detect(v int) int {
	if (state == 0) {
		if (v > 520) {
			count = count + 1;
			if (count >= 3) {
				state = 1;
				count = 0;
				events = events + 1;
				send(v);
			}
		} else {
			count = 0;
		}
	} else {
		if (v < 380) {
			count = count + 1;
			if (count >= 3) {
				state = 0;
				count = 0;
			}
		} else {
			count = 0;
		}
	}
	return state;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		acc = acc + detect(sense());
	}
	debug(acc);
	debug(events);
}
`,
}

var aggregate = App{
	Name:        "aggregate",
	Description: "sliding-window average with outlier rejection",
	Handler:     "addsample",
	Workload:    "gaussian",
	template: `
var win[8] int;
var idx int;
var filled int;
var rejected int;

func addsample(v int) int {
	var i int;
	var sum int;
	var avg int;
	sum = 0;
	for (i = 0; i < 8; i = i + 1) {
		sum = sum + win[i];
	}
	avg = sum / 8;
	if (filled >= 8 && (v > avg + 250 || v + 250 < avg)) {
		rejected = rejected + 1;
		return avg;
	}
	win[idx] = v;
	idx = (idx + 1) % 8;
	if (filled < 8) {
		filled = filled + 1;
	}
	if (idx == 0) {
		send(avg);
	}
	return avg;
}

func main() {
	var i int;
	var last int;
	last = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		last = addsample(sense());
	}
	debug(last);
	debug(rejected);
}
`,
}

var fir = App{
	Name:        "fir",
	Description: "4-tap FIR filter with activity classification",
	Handler:     "filterstep",
	Workload:    "regime",
	template: `
var taps[4] int;
var active int;

func filterstep(v int) int {
	var y int;
	taps[3] = taps[2];
	taps[2] = taps[1];
	taps[1] = taps[0];
	taps[0] = v;
	y = (taps[0] * 4 + taps[1] * 3 + taps[2] * 2 + taps[3]) / 10;
	if (y > 520) {
		active = active + 1;
		if (active >= 4) {
			send(y);
			active = 0;
		}
		return 2;
	}
	if (y > 240) {
		return 1;
	}
	active = 0;
	return 0;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		acc = acc + filterstep(sense());
	}
	debug(acc);
}
`,
}

var crc = App{
	Name:        "crc",
	Description: "packet CRC-8 with retransmission backoff",
	Handler:     "crc8",
	Workload:    "uniform",
	template: `
var pkt[8] int;

func crc8(n int) int {
	var c int;
	var i int;
	var j int;
	c = 0;
	for (i = 0; i < n; i = i + 1) {
		c = c ^ pkt[i];
		for (j = 0; j < 8; j = j + 1) {
			if (c & 1) {
				c = (c >> 1) ^ 0x8C;
			} else {
				c = c >> 1;
			}
		}
	}
	return c;
}

func sendpacket() int {
	var i int;
	var c int;
	var tries int;
	for (i = 0; i < 8; i = i + 1) {
		pkt[i] = sense() & 255;
	}
	c = crc8(8);
	tries = 1;
	while ((rand() & 7) == 0 && tries < 4) {
		tries = tries + 1;
	}
	send(c);
	return tries;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		acc = acc + sendpacket();
	}
	debug(acc);
}
`,
}

var duty = App{
	Name:        "duty",
	Description: "duty-cycled MAC-style scheduler state machine",
	Handler:     "schedule",
	Workload:    "bursty",
	template: `
var mode int;
var budget int = 40;

func schedule(v int) int {
	if (mode == 0) {
		if (v > 500 || budget > 60) {
			mode = 1;
		}
		budget = budget + 2;
		if (budget > 100) {
			budget = 100;
		}
	} else {
		budget = budget - 5;
		if (v > 700) {
			send(v);
			budget = budget - 10;
		}
		if (budget < 20) {
			mode = 0;
		}
	}
	if (budget < 0) {
		budget = 0;
	}
	led(mode);
	return mode;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		acc = acc + schedule(sense());
	}
	debug(acc);
	debug(budget);
}
`,
}

var quantize = App{
	Name:        "quantize",
	Description: "histogram quantization with bin-overflow reporting",
	Handler:     "binof",
	Workload:    "diurnal",
	template: `
var bins[8] int;

func binof(v int) int {
	var b int;
	if (v < 512) {
		if (v < 256) {
			if (v < 128) {
				b = 0;
			} else {
				b = 1;
			}
		} else {
			if (v < 384) {
				b = 2;
			} else {
				b = 3;
			}
		}
	} else {
		if (v < 768) {
			if (v < 640) {
				b = 4;
			} else {
				b = 5;
			}
		} else {
			if (v < 896) {
				b = 6;
			} else {
				b = 7;
			}
		}
	}
	bins[b] = bins[b] + 1;
	if (bins[b] > 900) {
		bins[b] = 0;
		send(b);
	}
	return b;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < @ITERS@; i = i + 1) {
		acc = acc + binof(sense());
	}
	debug(acc);
}
`,
}
