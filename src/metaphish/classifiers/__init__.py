"""Native implementations of the four classifiers and their selection API."""

from metaphish.classifiers.forest import RandomForest
from metaphish.classifiers.knn import KNearestNeighbors
from metaphish.classifiers.models import (
    BEST_CONFIGS,
    DEFAULT_GRIDS,
    KIND_ORDER,
    Beliefs,
    ClassifierKind,
    GridSearchResult,
    HyperGrid,
    TrainedModel,
    effective_candidates,
    generate_initial_beliefs,
    grid_search,
    load_model,
    predict_batch,
    save_model,
    train,
)
from metaphish.classifiers.svm import KernelSVM, linear_kernel, rbf_kernel, resolve_gamma
from metaphish.classifiers.tree import DecisionTree, TreeNode, entropy, gini

__all__ = [
    "BEST_CONFIGS",
    "Beliefs",
    "DEFAULT_GRIDS",
    "KIND_ORDER",
    "ClassifierKind",
    "DecisionTree",
    "GridSearchResult",
    "HyperGrid",
    "KNearestNeighbors",
    "KernelSVM",
    "RandomForest",
    "TrainedModel",
    "TreeNode",
    "effective_candidates",
    "entropy",
    "generate_initial_beliefs",
    "gini",
    "grid_search",
    "linear_kernel",
    "load_model",
    "predict_batch",
    "rbf_kernel",
    "resolve_gamma",
    "save_model",
    "train",
]
