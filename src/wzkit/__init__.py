"""Binary lossy compression with decoder side information.

Nested sparse codes split the job in two: a low-density generator quantizes
the source, and the syndrome of a surrounding low-density parity-check code
carries just enough of the quantized word for a decoder holding correlated
side information to recover it.
"""

from .gf2 import (BitMatrix, BitVector, EchelonBasis, RankDeficiencyError,
                  ShapeError, identity, mat_mul, mul_vec, permute, rank,
                  read_matrix, systematic_form, transpose, write_matrix)
from .degrees import (CatalogEntry, DegreeDistribution, design_rate,
                      load_catalog, parse_catalog, parse_polynomial)
from .builder import (CodeParams, CompoundCode, CompoundQuantizer,
                      ParamValidationError, ValidationReport,
                      all_one_diagonalize, assemble_compound,
                      build_compound_code, empirical_fractions, load_code,
                      peg_generate, save_code, validate_params)
from .quantizer import (BipParams, QuantizeResult, bip_quantize_all,
                        exhaustive_quantize, generator_codeword,
                        has_four_cycle)
from .decoder import (DecodeResult, SpParams, coset_members, coset_nearest,
                      sp_decode)
from .codec import (EncodeResult, ExperimentConfig, ExperimentResult,
                    binary_convolve, binary_entropy, bound_curve, decode,
                    encode, encode_all, invert_bound, run_experiment,
                    write_curve_csv, write_results_csv, wz_boundary, wz_rate)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gf2
    "BitMatrix", "BitVector", "EchelonBasis", "RankDeficiencyError",
    "ShapeError", "identity", "mat_mul", "mul_vec", "permute", "rank",
    "read_matrix", "systematic_form", "transpose", "write_matrix",
    # degrees
    "CatalogEntry", "DegreeDistribution", "design_rate", "load_catalog",
    "parse_catalog", "parse_polynomial",
    # builder
    "CodeParams", "CompoundCode", "CompoundQuantizer", "ParamValidationError",
    "ValidationReport", "all_one_diagonalize", "assemble_compound",
    "build_compound_code", "empirical_fractions", "load_code", "peg_generate",
    "save_code", "validate_params",
    # quantizer
    "BipParams", "QuantizeResult", "bip_quantize_all", "exhaustive_quantize",
    "generator_codeword", "has_four_cycle",
    # decoder
    "DecodeResult", "SpParams", "coset_members", "coset_nearest", "sp_decode",
    # codec
    "EncodeResult", "ExperimentConfig", "ExperimentResult", "binary_convolve",
    "binary_entropy", "bound_curve", "decode", "encode", "encode_all",
    "invert_bound", "run_experiment", "write_curve_csv", "write_results_csv",
    "wz_boundary", "wz_rate",
]
