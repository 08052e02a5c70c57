package cost

// StageWalk exposes stageWalk to the external test package, which plans the
// paper's models with the synthesizer (an import cycle from package cost).
var StageWalk = stageWalk
