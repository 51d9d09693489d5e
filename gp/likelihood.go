package gp

import (
	"fmt"
	"math"
	"sort"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/internal/linalg"
)

// LogMarginalLikelihood returns the log evidence log p(y | K, σ²) of
// the observations under the GP prior — the canonical model-selection
// criterion for GP hyperparameters (the paper's grid search leaves its
// criterion unspecified; this is the standard alternative to the
// cross-validated error used by GridSearch):
//
//	log p(y) = −½ yᵀ(K_uu+σ²I)⁻¹y − ½ log|K_uu+σ²I| − n/2 · log 2π
//
// Observations are standardized exactly like Fit does, so values are
// comparable across hyperparameters but not across data sets.
func LogMarginalLikelihood(k *Kernel, obs []Observation, noiseVar float64) (float64, error) {
	reg, err := Fit(k, obs, noiseVar)
	if err != nil {
		return 0, err
	}
	// alphaVec = A⁻¹ỹ with A = K_uu + Σnoise = L·Lᵀ, so the data-fit
	// term ỹᵀA⁻¹ỹ equals αᵀAα = |Lᵀα|².
	n := len(reg.observed)
	lt := make([]float64, n)
	// lt = Lᵀ·α
	for i := 0; i < n; i++ {
		var s float64
		for j := i; j < n; j++ {
			s += reg.chol.L.At(j, i) * reg.alphaVec[j]
		}
		lt[i] = s
	}
	quad := linalg.Dot(lt, lt) // αᵀ L Lᵀ α = ỹᵀ A⁻¹ ỹ
	logDet := reg.chol.LogDet()
	return -0.5*quad - 0.5*logDet - float64(n)/2*math.Log(2*math.Pi), nil
}

// GridSearchML selects (α, β) from the grids by maximising the log
// marginal likelihood, reusing one Laplacian inversion per α.
func GridSearchML(g *citygraph.Graph, obs []Observation, alphas, betas []float64, noiseVar float64) (GridSearchResult, error) {
	if len(alphas) == 0 || len(betas) == 0 {
		return GridSearchResult{}, fmt.Errorf("gp: empty hyperparameter grid")
	}
	if len(obs) == 0 {
		return GridSearchResult{}, fmt.Errorf("gp: no observations")
	}
	best := GridSearchResult{RMSE: math.Inf(1)}
	bestLL := math.Inf(-1)
	for _, a := range alphas {
		base, err := RegularizedLaplacian(g, a, 1)
		if err != nil {
			return GridSearchResult{}, err
		}
		for _, b := range betas {
			k, err := base.Rescale(b)
			if err != nil {
				return GridSearchResult{}, err
			}
			ll, err := LogMarginalLikelihood(k, obs, noiseVar)
			if err != nil {
				return GridSearchResult{}, err
			}
			best.Evaluated++
			if ll > bestLL {
				bestLL = ll
				best.Alpha, best.Beta = a, b
				// Report the training RMSE of the winner for
				// comparability with GridSearch.
				best.RMSE = trainRMSE(k, obs, noiseVar)
			}
		}
	}
	return best, nil
}

// trainRMSE is the in-sample RMSE of the predictive mean.
func trainRMSE(k *Kernel, obs []Observation, noiseVar float64) float64 {
	reg, err := Fit(k, obs, noiseVar)
	if err != nil {
		return math.Inf(1)
	}
	// Deduplicate like Fit does: score against per-vertex means.
	perVertex := make(map[int][]float64)
	for _, o := range obs {
		perVertex[o.Vertex] = append(perVertex[o.Vertex], o.Value)
	}
	vertices := make([]int, 0, len(perVertex))
	for v := range perVertex {
		vertices = append(vertices, v)
	}
	sort.Ints(vertices)
	mean, err := reg.Mean(vertices)
	if err != nil {
		return math.Inf(1)
	}
	var sq float64
	for i, v := range vertices {
		var avg float64
		for _, val := range perVertex[v] {
			avg += val
		}
		avg /= float64(len(perVertex[v]))
		d := mean[i] - avg
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(vertices)))
}
