package dnn

// The external test package reaches the in-package fixtures through these.
var (
	TinyModel       = tinyModel
	TinyPlatform    = tinyPlatform
	ServedModel     = servedModel
	ServingPlatform = servingPlatform
	DPPlatform      = dpPlatform
)
