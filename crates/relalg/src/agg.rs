//! Aggregate functions.

use std::fmt;

use prisma_types::{DataType, PrismaError, Result, Value};

/// The aggregate functions of the SQL front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows including NULLs.
    CountStar,
    /// `COUNT(col)` — counts non-NULL values.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// One aggregate in an `Aggregate` plan node: function + input column
/// (ignored for `CountStar`) + output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input column ordinal (unused for COUNT(*)).
    pub col: usize,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Construct.
    pub fn new(func: AggFunc, col: usize, name: impl Into<String>) -> Self {
        AggExpr {
            func,
            col,
            name: name.into(),
        }
    }

    /// Output type given the input column type.
    pub fn output_type(&self, input: DataType) -> Result<DataType> {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Ok(DataType::Int),
            AggFunc::Sum => {
                if input.is_numeric() {
                    Ok(input)
                } else {
                    Err(PrismaError::ExprType(format!("SUM over {input}")))
                }
            }
            AggFunc::Avg => {
                if input.is_numeric() {
                    Ok(DataType::Double)
                } else {
                    Err(PrismaError::ExprType(format!("AVG over {input}")))
                }
            }
            AggFunc::Min | AggFunc::Max => Ok(input),
        }
    }
}

/// Row-at-a-time accumulator for one aggregate over one group — the
/// reference evaluator's ([`mod@crate::eval`]). The executor folds through
/// the typed [`crate::group::GroupTable`] instead, and must agree with
/// this bit for bit.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum: Option<Value>,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: None,
            min: None,
            max: None,
        }
    }

    /// Feed one value (the row itself for COUNT(*); NULLs are skipped for
    /// all others per SQL).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if self.func == AggFunc::CountStar {
            self.count += 1;
            return Ok(());
        }
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::Sum | AggFunc::Avg => {
                self.sum = Some(match &self.sum {
                    None => v.clone(),
                    Some(acc) => acc
                        .add(v)
                        .ok_or_else(|| PrismaError::Arithmetic(format!("SUM overflow at {v}")))?,
                });
            }
            AggFunc::Min => {
                if self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
            AggFunc::Count | AggFunc::CountStar => {}
        }
        Ok(())
    }

    /// The aggregate result. Empty-input semantics follow SQL: COUNT is 0,
    /// everything else NULL.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => self.sum.clone().unwrap_or(Value::Null),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg => match &self.sum {
                None => Value::Null,
                Some(s) => {
                    let total = s.as_double().unwrap_or(0.0);
                    Value::Double(total / self.count as f64)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = Accumulator::new(func);
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn basic_aggregates() {
        let vals = vec![Value::Int(3), Value::Null, Value::Int(1), Value::Int(6)];
        assert_eq!(run(AggFunc::CountStar, &vals), Value::Int(4));
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(3));
        assert_eq!(run(AggFunc::Sum, &vals), Value::Int(10));
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(6));
        assert_eq!(
            run(AggFunc::Avg, &vals),
            Value::Double(10.0 / 3.0)
        );
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(run(AggFunc::CountStar, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
    }

    #[test]
    fn output_types() {
        assert_eq!(
            AggExpr::new(AggFunc::Avg, 0, "a").output_type(DataType::Int).unwrap(),
            DataType::Double
        );
        assert_eq!(
            AggExpr::new(AggFunc::Sum, 0, "s").output_type(DataType::Double).unwrap(),
            DataType::Double
        );
        assert!(AggExpr::new(AggFunc::Sum, 0, "s")
            .output_type(DataType::Str)
            .is_err());
        assert_eq!(
            AggExpr::new(AggFunc::Min, 0, "m").output_type(DataType::Str).unwrap(),
            DataType::Str
        );
    }

    #[test]
    fn sum_overflow_is_an_error() {
        let mut acc = Accumulator::new(AggFunc::Sum);
        acc.update(&Value::Int(i64::MAX)).unwrap();
        assert!(acc.update(&Value::Int(1)).is_err());
    }

    #[test]
    fn min_max_on_strings() {
        let vals = vec![Value::from("pear"), Value::from("apple")];
        assert_eq!(run(AggFunc::Min, &vals), Value::from("apple"));
        assert_eq!(run(AggFunc::Max, &vals), Value::from("pear"));
    }
}
