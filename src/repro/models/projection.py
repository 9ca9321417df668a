"""Linear projection regressors: PCR and PLS (plus plain ridge).

- :class:`PrincipalComponentForecaster` — PCA on the embedding, OLS on the
  leading components (PCMR in the paper's pool table).
- :class:`PLSForecaster` — partial least squares via the NIPALS
  algorithm, extracting components that maximise covariance with the
  target rather than input variance.
- :class:`RidgeForecaster` — L2-regularised least squares, used by
  several combiners as a cheap meta-learner.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.models.base import WindowRegressor
from repro.preprocessing.scaling import StandardScaler


class PrincipalComponentForecaster(WindowRegressor):
    """PCR: OLS on the top principal components of the embedding."""

    def __init__(self, embedding_dimension: int = 5, n_components: int = 3):
        super().__init__(embedding_dimension)
        if n_components < 1:
            raise ConfigurationError(f"n_components must be >= 1, got {n_components}")
        if n_components > embedding_dimension:
            raise ConfigurationError(
                f"n_components={n_components} exceeds embedding "
                f"dimension {embedding_dimension}"
            )
        self.n_components = n_components
        self._x_scaler = StandardScaler()
        self._components: Optional[np.ndarray] = None
        self._coef: Optional[np.ndarray] = None
        self._intercept: float = 0.0
        self.name = f"pcr(c={n_components})"

    def _fit_xy(self, X: np.ndarray, y: np.ndarray) -> None:
        Xs = self._x_scaler.fit_transform(X)
        _, _, vt = np.linalg.svd(Xs, full_matrices=False)
        self._components = vt[: self.n_components].T  # (k, c)
        scores = Xs @ self._components
        gram = scores.T @ scores + 1e-10 * np.eye(self.n_components)
        self._intercept = float(y.mean())
        self._coef = np.linalg.solve(gram, scores.T @ (y - self._intercept))

    def _predict_matrix(self, X: np.ndarray) -> np.ndarray:
        scores = self._x_scaler.transform(X) @ self._components
        return scores @ self._coef + self._intercept

    @property
    def explained_variance_ratio_(self) -> np.ndarray:
        """Variance fraction captured by each retained component."""
        self._check_fitted()
        return self._explained

    def fit(self, series: np.ndarray) -> "PrincipalComponentForecaster":
        result = super().fit(series)
        # Recompute explained variance for introspection.
        from repro.preprocessing.embedding import embed

        X, _ = embed(np.asarray(series, dtype=np.float64), self.embedding_dimension)
        Xs = self._x_scaler.transform(X)
        _, s, _ = np.linalg.svd(Xs, full_matrices=False)
        var = s ** 2
        self._explained = var[: self.n_components] / var.sum()
        return result


class PLSForecaster(WindowRegressor):
    """PLS regression via NIPALS (Wold); components maximise cov(X, y)."""

    def __init__(self, embedding_dimension: int = 5, n_components: int = 2):
        super().__init__(embedding_dimension)
        if n_components < 1 or n_components > embedding_dimension:
            raise ConfigurationError(
                f"n_components must be in [1, {embedding_dimension}], "
                f"got {n_components}"
            )
        self.n_components = n_components
        self._x_scaler = StandardScaler()
        self._y_mean: float = 0.0
        self._coef: Optional[np.ndarray] = None
        self.name = f"pls(c={n_components})"

    def _fit_xy(self, X: np.ndarray, y: np.ndarray) -> None:
        Xs = self._x_scaler.fit_transform(X)
        self._y_mean = float(y.mean())
        residual_y = (y - self._y_mean).astype(np.float64)
        E = Xs.copy()
        weights, loadings, y_loadings = [], [], []
        for _ in range(self.n_components):
            w = E.T @ residual_y
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                break
            w /= norm
            t = E @ w
            tt = float(t @ t)
            if tt < 1e-12:
                break
            p = E.T @ t / tt
            q = float(residual_y @ t / tt)
            E = E - np.outer(t, p)
            residual_y = residual_y - q * t
            weights.append(w)
            loadings.append(p)
            y_loadings.append(q)
        if not weights:
            self._coef = np.zeros(Xs.shape[1])
            return
        W = np.column_stack(weights)
        P = np.column_stack(loadings)
        q = np.asarray(y_loadings)
        # β = W (PᵀW)⁻¹ q — the standard PLS regression coefficients.
        self._coef = W @ np.linalg.solve(P.T @ W, q)

    def _predict_matrix(self, X: np.ndarray) -> np.ndarray:
        return self._x_scaler.transform(X) @ self._coef + self._y_mean

class RidgeForecaster(WindowRegressor):
    """L2-regularised linear autoregression on the embedding."""

    def __init__(self, embedding_dimension: int = 5, alpha: float = 1.0):
        super().__init__(embedding_dimension)
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        self._x_scaler = StandardScaler()
        self._coef: Optional[np.ndarray] = None
        self._intercept: float = 0.0
        self.name = f"ridge(a={alpha})"

    def _fit_xy(self, X: np.ndarray, y: np.ndarray) -> None:
        Xs = self._x_scaler.fit_transform(X)
        self._intercept = float(y.mean())
        gram = Xs.T @ Xs + self.alpha * np.eye(Xs.shape[1])
        self._coef = np.linalg.solve(gram, Xs.T @ (y - self._intercept))

    def _predict_matrix(self, X: np.ndarray) -> np.ndarray:
        return self._x_scaler.transform(X) @ self._coef + self._intercept
