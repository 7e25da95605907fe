package advisor

// The external test package reaches the map-based reference through this.
var ReferenceAnalyze = referenceAnalyze
