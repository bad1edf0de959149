"""Published JSON schema for the pipeline report."""

_NUMBER_OR_NULL = {"type": ["number", "null"]}

PIPELINE_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "votebound pipeline report",
    "type": "object",
    "required": ["bound_report", "game_solution", "examples", "fallback", "seed"],
    "properties": {
        "bound_report": {
            "type": "object",
            "required": [
                "m",
                "delta",
                "posterior",
                "gibbs_train_error",
                "kl_posterior_prior",
                "epsilon",
                "lambda_hat",
                "train_kl_budget",
                "error_bound_raw",
                "error_bound_clipped",
                "abstain_bound",
                "mistake_bound",
                "degenerate",
            ],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "posterior": {"type": "string"},
                "gibbs_train_error": {"type": "number", "minimum": 0, "maximum": 1},
                "kl_posterior_prior": {"type": "number", "minimum": 0},
                "epsilon": {"type": "number", "minimum": 0},
                "lambda_hat": {"type": "number"},
                "train_kl_budget": {"type": "number", "minimum": 0},
                "error_bound_raw": _NUMBER_OR_NULL,
                "error_bound_clipped": _NUMBER_OR_NULL,
                "abstain_bound": _NUMBER_OR_NULL,
                "mistake_bound": _NUMBER_OR_NULL,
                "degenerate": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "game_solution": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["v", "value", "lower_bound", "g_star", "z_star"],
                    "properties": {
                        "v": {"type": "integer", "minimum": 1},
                        "value": {"type": "number"},
                        "lower_bound": {"type": "number"},
                        "g_star": {"type": "array", "items": {"type": "number"}},
                        "z_star": {"type": "array", "items": {"type": "number"}},
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "abstain_solution": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": [
                        "alpha",
                        "trivial",
                        "w",
                        "budget",
                        "value_exact",
                        "value_lower",
                        "value_upper",
                        "value_closed_form",
                        "p_alg",
                        "loss_formula",
                        "loss_no_abstain",
                    ],
                    "properties": {
                        "alpha": {"type": "number", "exclusiveMinimum": 0},
                        "trivial": {"type": "boolean"},
                        "w": {"type": ["integer", "null"]},
                        "budget": {"type": "number"},
                        "value_exact": {"type": "number"},
                        "value_lower": {"type": "number"},
                        "value_upper": {"type": "number"},
                        "value_closed_form": _NUMBER_OR_NULL,
                        "p_alg": {"type": "array", "items": {"type": "number"}},
                        "loss_formula": {"type": "number"},
                        "loss_no_abstain": {"type": "number"},
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "examples": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "vote", "prediction", "abstain_probability", "label"],
                "properties": {
                    "index": {"type": "integer", "minimum": 0},
                    "vote": {"type": "number", "minimum": -1, "maximum": 1},
                    "prediction": {"type": "number", "minimum": -1, "maximum": 1},
                    "abstain_probability": {"type": "number", "minimum": 0, "maximum": 1},
                    "label": {"type": "number", "enum": [-1, 0, 1]},
                },
                "additionalProperties": False,
            },
        },
        "fallback": {"type": "boolean"},
        "seed": {"type": ["integer", "null"]},
        "tool": {
            "type": "object",
            "required": ["name", "version"],
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}
