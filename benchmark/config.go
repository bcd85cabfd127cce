package main

// Frozen benchmark configuration. BENCHMARK.json may carry only the keys the
// driver's contract allows, so the sizes, operation counts and rates that
// make two commits comparable live here; changing any of them starts a new
// baseline. The rates and per-second operation counts were calibrated once on
// the recording host (2 cores, GOMAXPROCS 2, go1.24.0 linux/amd64) so that
// each timed window lasts about --seconds there.
const (
	// datasetSeed fixes the instance: the graphs, the database and the pool
	// of query edges. --seed draws the request stream over that instance
	// (positions on the edges, weights, budgets, keys, order); see README.md
	// "Seeds" for why the instance itself does not move with --seed.
	datasetSeed = 1
	costTypes   = 4
	// A seed moves each query place along its edge by at most half of this.
	placeJitter = 0.1

	// sf25: the paper's default setting at scale 0.25.
	sf25Nodes      = 43750
	sf25Facilities = 25000
	// td2k: the network behind every workload that serves time-dependent
	// queries. mcnserve -timedep profiles a tenth of the edges with four
	// jittered breakpoints each and compiles one |E|·d cost matrix plus one
	// pruning index per elementary interval, eagerly: memory and compile time
	// grow with |V|², about 39 GB at sf25. 2000 nodes compile in ~1.5 s.
	td2kNodes      = 2000
	td2kFacilities = 1150

	// disk_paper: buffer pool fraction and operations per second of window.
	diskPaperBuffer    = 0.01
	diskPaperOpsPerSec = 60
	// serve_hot_disk: buffer fraction, cacheable keys, Zipf exponent, and one
	// uncacheable (streamed) request in every hotUncachedEvery.
	hotDiskBuffer    = 0.10
	hotDiskKeys      = 512
	zipfS            = 1.1
	hotUncachedEvery = 256
	// serve_mixed: phase A arrival rate (about 30 % of the recording host's
	// closed-loop peak of ~3400/s: far enough from saturation that a slow
	// spell of the host does not turn the window into a queueing experiment)
	// and the latency limit of the traced SLO probe.
	serveMixedRate = 1000.0
	sloLimitMS     = 50.0
	// Every period query sweeps this many elementary intervals.
	periodIntervals = 6
	// update_mix: operations per second of window, and the write share.
	updateMixOpsPerSec = 900
	updateKeys         = 1024
	// Process workloads talk over at most this many connections.
	connections = 2
	// Skyline/top-k answers checked against the brute-force baseline per
	// run, on the big and on the small network.
	bruteChecksSF25 = 8
	bruteChecksTD2K = 96
	// Set-up is repeated this often per run and setup_s is the median: nine
	// times where it takes a fraction of a second, three times where it
	// compiles the time-dependent overlay (1.5 s each).
	setupRepeats        = 9
	setupRepeatsTimedep = 3
)

// sloRates are the fixed arrival rates of the traced SLO probe on
// serve_mixed: about 30, 60 and 75 % of the recording host's closed-loop peak.
var sloRates = [3]float64{serveMixedRate, 2 * serveMixedRate, 2.5 * serveMixedRate}

// profileTimes is the breakpoint palette of update_mix's time-dependent
// network. Every profile uses all four instants, so a SetProfile never moves
// the global time axis and invalidates exactly the intervals it changes.
var profileTimes = []float64{7, 9.5, 17, 19.5}

// updateInstants has one instant inside each elementary interval of
// profileTimes.
var updateInstants = []float64{6, 8, 12, 18, 21}
