package main

// surface.go is the only file of the benchmark that names the product: every
// package, symbol, command-line flag, HTTP endpoint and /stats field the
// benchmark depends on is bound here, so a later rename breaks the build (or
// the first request) in this one obvious place. README.md lists the same
// surface. Nothing here adds behaviour.

import (
	"mcn"
	"mcn/internal/cluster"
	"mcn/internal/core"
	"mcn/internal/expand"
	"mcn/internal/flat"
	"mcn/internal/graph"
	"mcn/internal/index"
	"mcn/internal/rescache"
	"mcn/internal/serve"
	"mcn/internal/storage"
	"mcn/internal/wire"
)

// Facade (package mcn).
type (
	Graph          = mcn.Graph
	Network        = mcn.Network
	TimeNetwork    = mcn.TimeNetwork
	TimeProfile    = mcn.TimeProfile
	IntervalResult = mcn.IntervalResult
	Location       = mcn.Location
	EdgeID         = mcn.EdgeID
	FacilityID     = mcn.FacilityID
	Facility       = mcn.Facility
	Costs          = mcn.Costs
	Result         = mcn.Result
	QueryStats     = mcn.Stats
	Option         = mcn.Option
	Executor       = mcn.Executor
	Maintainer     = mcn.Maintainer
	Handle         = mcn.Handle
	ResultCache    = mcn.ResultCache
)

var (
	synthetic           = mcn.Synthetic
	randomQueries       = mcn.RandomQueries
	fromGraph           = mcn.FromGraph
	createDatabase      = mcn.CreateDatabaseIndexed
	openDatabase        = mcn.OpenDatabaseOptions
	openDevice          = mcn.OpenDeviceOptions
	timeDependent       = mcn.TimeDependent
	attachSynthProfiles = mcn.AttachSyntheticProfiles
	queryOptions        = mcn.QueryOptions
	withEngine          = mcn.WithEngine
	progressive         = mcn.Progressive
	weightedSum         = mcn.WeightedSum
	costsOf             = mcn.Of
	skylineRequest      = mcn.SkylineRequest
	topKRequest         = mcn.TopKRequest
	nearestRequest      = mcn.NearestRequest
	withinRequest       = mcn.WithinRequest
)

const (
	engineCEA = mcn.CEA
	engineLSA = mcn.LSA
)

type (
	SyntheticConfig = mcn.SyntheticConfig
	PoolOptions     = mcn.PoolOptions
	CacheOptions    = mcn.CacheOptions
	CacheStats      = mcn.CacheStats
	ExecutorConfig  = mcn.ExecutorConfig
	BatchRequest    = mcn.BatchRequest
)

// Storage seam: the benchmark wraps a Device under the buffer pool and a
// Source under the core algorithms (traced disk pass only).
type (
	Device       = storage.Device
	PageID       = storage.PageID
	StorageStore = storage.Network
	Source       = expand.Source
	NodeID       = graph.NodeID
	AdjEntry     = graph.AdjEntry
	FacEntry     = graph.FacEntry
	EdgeInfo     = graph.EdgeInfo
	CoreOptions  = core.Options
)

const pageSize = storage.PageSize

var (
	openFileDevice = storage.OpenFileDevice
	openStore      = storage.OpenOptions
	coreSkyline    = core.Skyline
	coreTopK       = core.TopK
	coreWithin     = core.Within
	coreNearest    = core.Nearest
	mergeSkylines  = core.MergeSkylines
	mergeTopK      = core.MergeTopK
	flatCompile    = flat.Compile
	indexFromGraph = index.FromGraph
	edgeTag        = rescache.EdgeTag
)

// Serving tier.
type (
	ServeConfig  = serve.Config
	Request      = wire.Request
	WireResult   = wire.Result
	WirePeriod   = wire.PeriodResult
	WireFacility = wire.Facility
)

var (
	newServer          = serve.New
	newMembership      = cluster.NewMembership
	newGateway         = cluster.NewGateway
	encodeRequest      = wire.EncodeRequest
	decodeRequestBody  = wire.DecodeRequestBody
	readFrame          = wire.ReadFrame
	decodeResponse     = wire.DecodeResponse
	encodeResult       = wire.EncodeResult
	encodePeriodResult = wire.EncodePeriodResult
	toCoreFacilities   = wire.ToFacilities
)

const (
	policyHash       = cluster.PolicyHash
	ctypeJSON        = wire.ContentTypeJSON
	ctypeBinary      = wire.ContentTypeBinary
	maxResponseFrame = wire.MaxResponseFrame

	kindSkyline       = wire.KindSkyline
	kindTopK          = wire.KindTopK
	kindNearest       = wire.KindNearest
	kindWithin        = wire.KindWithin
	kindMultiSkyline  = wire.KindMultiSourceSkyline
	kindMultiTopK     = wire.KindMultiSourceTopK
	kindSkylinePeriod = wire.KindSkylinePeriod
	kindTopKPeriod    = wire.KindTopKPeriod
)

// Commands the untraced process workloads build and spawn, with the flags
// they pass.
const (
	pkgServe   = "./cmd/mcnserve"
	pkgGateway = "./cmd/mcngateway"

	flagAddr         = "-addr"
	flagDB           = "-db"
	flagBuffer       = "-buffer"
	flagSynthetic    = "-synthetic"
	flagNodes        = "-nodes"
	flagFacilities   = "-facilities"
	flagD            = "-d"
	flagSeed         = "-seed"
	flagTimedep      = "-timedep"
	flagCacheEntries = "-cache-entries"
	flagBackends     = "-backends"
	flagPolicy       = "-policy"
)

// HTTP endpoints. GET query endpoints are "/" + the wire kind (Request.URI
// renders them); these are the fixed ones.
const (
	pathReadyz  = "/readyz"
	pathStats   = "/stats"
	pathV1Query = "/v1/query"
)

// serveStats is the subset of mcnserve's GET /stats the benchmark reads.
type serveStats struct {
	IO struct {
		Physical int64 `json:"physical"`
	} `json:"io"`
	Admission struct {
		Shed int64 `json:"shed_requests"`
	} `json:"admission"`
}

// gatewayStats is the subset of mcngateway's GET /stats the benchmark reads.
type gatewayStats struct {
	Gateway struct {
		Failovers int64 `json:"failovers"`
	} `json:"gateway"`
}
